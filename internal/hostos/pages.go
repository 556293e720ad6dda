package hostos

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cheri"
)

// PageSize is the allocation granule for memory reservations.
const PageSize = 4096

// PageAlloc hands out page-aligned reservations from a fixed arena, in
// the role of the kernel's mmap for the Intravisor and DPDK's hugepage
// segments. A reservation of a hugepage or more starts on a boundary of
// its memory's hugepage grid (cheri.TMem.PageEnd), as a hugetlbfs
// mapping does, so no view of memory a compartment lays out from its
// window's base crosses one by accident.
type PageAlloc struct {
	mem  *cheri.TMem
	base uint64
	size uint64
	free []span // sorted by addr, coalesced
}

type span struct {
	addr uint64
	size uint64
}

// NewPageAlloc manages [base, base+size) of mem, both page aligned.
func NewPageAlloc(mem *cheri.TMem, base, size uint64) (*PageAlloc, error) {
	if base%PageSize != 0 || size%PageSize != 0 || size == 0 {
		return nil, fmt.Errorf("hostos: page arena [%#x,+%#x) not page aligned", base, size)
	}
	return &PageAlloc{
		mem:  mem,
		base: base,
		size: size,
		free: []span{{addr: base, size: size}},
	}, nil
}

// Alloc reserves n bytes (rounded up to pages) and returns the base
// address: first fit, on a hugepage boundary if n is a hugepage or more.
// The free bytes skipped below a boundary stay free.
func (p *PageAlloc) Alloc(n uint64) (uint64, Errno) {
	if n == 0 {
		return 0, EINVAL
	}
	n = (n + PageSize - 1) &^ (PageSize - 1)
	for i, s := range p.free {
		addr, end := s.addr, s.addr+s.size
		if e := p.mem.PageEnd(addr); n >= cheri.HugePageSize && e-addr < cheri.HugePageSize {
			addr = e
		}
		if addr+n > end || addr+n < addr {
			continue
		}
		var keep []span
		if addr > s.addr {
			keep = append(keep, span{addr: s.addr, size: addr - s.addr})
		}
		if addr+n < end {
			keep = append(keep, span{addr: addr + n, size: end - addr - n})
		}
		p.free = slices.Replace(p.free, i, i+1, keep...)
		return addr, OK
	}
	return 0, ENOMEM
}

// Free returns a reservation. Freeing memory that is not currently
// allocated (double free, out-of-arena) yields EINVAL.
func (p *PageAlloc) Free(addr, n uint64) Errno {
	if n == 0 || addr%PageSize != 0 || n%PageSize != 0 {
		return EINVAL
	}
	if addr < p.base || addr+n > p.base+p.size || addr+n < addr {
		return EINVAL
	}
	// Reject overlap with existing free spans.
	for _, s := range p.free {
		if addr < s.addr+s.size && s.addr < addr+n {
			return EINVAL
		}
	}
	p.free = append(p.free, span{addr: addr, size: n})
	sort.Slice(p.free, func(i, j int) bool { return p.free[i].addr < p.free[j].addr })
	// Coalesce.
	out := p.free[:1]
	for _, s := range p.free[1:] {
		last := &out[len(out)-1]
		if last.addr+last.size == s.addr {
			last.size += s.size
		} else {
			out = append(out, s)
		}
	}
	p.free = out
	return OK
}

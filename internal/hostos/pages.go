package hostos

import (
	"fmt"
	"sort"
)

// PageSize is the allocation granule for memory reservations.
const PageSize = 4096

// PageAlloc hands out page-aligned reservations from a fixed arena, in
// the role of the kernel's mmap for the Intravisor and DPDK's
// hugepage-like segments.
type PageAlloc struct {
	base uint64
	size uint64
	free []span // sorted by addr, coalesced
}

type span struct {
	addr uint64
	size uint64
}

// NewPageAlloc manages [base, base+size), both page aligned.
func NewPageAlloc(base, size uint64) (*PageAlloc, error) {
	if base%PageSize != 0 || size%PageSize != 0 || size == 0 {
		return nil, fmt.Errorf("hostos: page arena [%#x,+%#x) not page aligned", base, size)
	}
	return &PageAlloc{
		base: base,
		size: size,
		free: []span{{addr: base, size: size}},
	}, nil
}

// Alloc reserves n bytes (rounded up to pages) and returns the base
// address. First fit.
func (p *PageAlloc) Alloc(n uint64) (uint64, Errno) {
	if n == 0 {
		return 0, EINVAL
	}
	n = (n + PageSize - 1) &^ (PageSize - 1)
	for i := range p.free {
		if p.free[i].size >= n {
			addr := p.free[i].addr
			p.free[i].addr += n
			p.free[i].size -= n
			if p.free[i].size == 0 {
				p.free = append(p.free[:i], p.free[i+1:]...)
			}
			return addr, OK
		}
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

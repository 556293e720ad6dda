package cheri

import "fmt"

// HugePageSize is the granule physical memory exists in: DPDK's 2 MiB
// hugepage. A hugepage is allocated, zeroed, the first time an access
// reaches it, so memory that is reserved but never touched costs the
// host nothing.
const HugePageSize = 2 << 20

const hugeMask = HugePageSize - 1

// TMem is physical memory: a table of hugepages that every access
// reaches through a capability check (or, for the Baseline and raw-mode
// bus masters, none). It holds data bytes only. A capability is a value
// code holds — a cVM's DDC, an entry pair, a gate argument, a port's DMA
// grant — and is never stored into memory, so no byte pattern written
// here can come back as a tagged capability: unforgeability holds by
// construction.
//
// The hugepage grid ends at the top of memory: a memory that is not a
// whole number of hugepages has one short page, its lowest, below
// size mod HugePageSize. A machine's memory is the kernel's low
// reservation (the null page and the code window) plus whole hugepages,
// so that short page is the kernel's and every reservation above it can
// start on a boundary. A view (RawSlice, CheckedSlice, CheckedSliceRO)
// lies inside one hugepage or is refused (a bounds fault under
// "hugepage"); Load and Store copy across boundaries.
//
// A TMem belongs to one machine of one bed, and the bed's one goroutine
// is its only user (DESIGN.md §12).
type TMem struct {
	// pages are the hugepages in address order, each nil until first
	// touched. Address a lies at offset (a+skew) mod HugePageSize of page
	// (a+skew) / HugePageSize.
	pages [][]byte
	size  uint64
	// skew shifts the grid so that it ends at size; 0 for a memory of
	// one hugepage or less, which is that one page.
	skew uint64
}

// NewTMem allocates memory of the given size (rounded up to a
// granule multiple). No byte of it is backed until it is touched.
func NewTMem(size uint64) *TMem {
	size = (size + CapSize - 1) &^ (CapSize - 1)
	m := &TMem{size: size}
	if size > HugePageSize {
		m.skew = -size & hugeMask
	}
	m.pages = make([][]byte, (m.skew+size+hugeMask)/HugePageSize)
	return m
}

// Size returns the memory size in bytes.
func (m *TMem) Size() uint64 { return m.size }

// Root returns the architectural root capability over all of memory.
func (m *TMem) Root() Cap { return NewRoot(0, m.size, PermAll) }

// PageEnd returns the end of the hugepage that holds addr: a view from
// addr may reach up to it and no further.
func (m *TMem) PageEnd(addr uint64) uint64 {
	return addr + HugePageSize - (addr+m.skew)&hugeMask
}

// inRange reports whether [addr, addr+n) is inside physical memory.
func (m *TMem) inRange(addr uint64, n int) bool {
	end := addr + uint64(n)
	return n > 0 && end >= addr && end <= m.size
}

// inPage reports whether [addr, addr+n) is inside physical memory and
// inside one hugepage of it: what a view may cover.
func (m *TMem) inPage(addr uint64, n int) bool {
	return m.inRange(addr, n) && (addr+m.skew)&hugeMask+uint64(n) <= HugePageSize
}

// viewOp names the bounds fault of a view the capability permits but
// memory refuses: "slice" if it leaves physical memory, "hugepage" if it
// only crosses a boundary — a limit of how memory is backed, not of the
// capability, so a trap log can tell the two apart.
func (m *TMem) viewOp(addr uint64, n int) string {
	if m.inRange(addr, n) {
		return "hugepage"
	}
	return "slice"
}

// view returns [addr, addr+n), which inPage admitted, backing its
// hugepage first if this is the page's first touch.
func (m *TMem) view(addr uint64, n int) []byte {
	a := addr + m.skew
	p := m.pages[a/HugePageSize]
	if p == nil {
		p = m.touch(a / HugePageSize)
	}
	off := a & hugeMask
	return p[off : off+uint64(n) : off+uint64(n)]
}

// touch backs hugepage i: a zeroed page from the Go heap, kept for the
// memory's life.
func (m *TMem) touch(i uint64) []byte {
	p := make([]byte, min(HugePageSize, m.size))
	m.pages[i] = p
	return p
}

// pageChunk is how much of [addr, addr+n) lies in addr's hugepage.
func (m *TMem) pageChunk(addr uint64, n int) int {
	return int(min(uint64(n), m.PageEnd(addr)-addr))
}

// Load copies len(dst) bytes at addr into dst through capability c.
func (m *TMem) Load(c Cap, addr uint64, dst []byte) error {
	if !c.permits(PermLoad, addr, len(dst)) || !m.inRange(addr, len(dst)) {
		return accessFault(&c, PermLoad, "load", addr, len(dst))
	}
	for len(dst) > 0 {
		k := m.pageChunk(addr, len(dst))
		copy(dst, m.view(addr, k))
		addr, dst = addr+uint64(k), dst[k:]
	}
	return nil
}

// Store copies src into memory at addr through capability c.
func (m *TMem) Store(c Cap, addr uint64, src []byte) error {
	if !c.permits(PermStore, addr, len(src)) || !m.inRange(addr, len(src)) {
		return accessFault(&c, PermStore, "store", addr, len(src))
	}
	for len(src) > 0 {
		k := m.pageChunk(addr, len(src))
		copy(m.view(addr, k), src)
		addr, src = addr+uint64(k), src[k:]
	}
	return nil
}

// --- unchecked access (device DMA in raw mode, Baseline scenario) ---

// RawSlice returns a direct view of [addr, addr+n) with no capability
// check. It models the unprotected accesses of the non-CHERI Baseline and
// of bus masters that bypass capability checks.
func (m *TMem) RawSlice(addr uint64, n int) ([]byte, error) {
	if !m.inPage(addr, n) {
		return nil, fmt.Errorf("tmem: raw access [%#x,+%d) outside one hugepage of memory of size %#x", addr, n, m.size)
	}
	return m.view(addr, n), nil
}

// CheckedSlice verifies a load+store capability over the whole range and
// returns the backing slice. It models a checked bulk access (the bounds
// and permission checks execute once; the data movement is then performed
// at memcpy speed, as the hardware pipeline does for a sequence of
// in-bounds accesses).
func (m *TMem) CheckedSlice(c Cap, addr uint64, n int) ([]byte, error) {
	if !c.permits(PermLoad|PermStore, addr, n) || !m.inPage(addr, n) {
		return nil, accessFault(&c, PermLoad|PermStore, m.viewOp(addr, n), addr, n)
	}
	return m.view(addr, n), nil
}

// CheckedSliceRO verifies a load capability over the whole range and
// returns the backing slice for reading.
func (m *TMem) CheckedSliceRO(c Cap, addr uint64, n int) ([]byte, error) {
	if !c.permits(PermLoad, addr, n) || !m.inPage(addr, n) {
		return nil, accessFault(&c, PermLoad, m.viewOp(addr, n), addr, n)
	}
	return m.view(addr, n), nil
}

// accessFault is the failure path of every checked access above: the
// load check's fault if need holds PermLoad, then the store check's if
// it holds PermStore, then — both passed, so physical memory is what
// refused — a bounds fault under physOp.
func accessFault(c *Cap, need Perm, physOp string, addr uint64, n int) error {
	if need&PermLoad != 0 {
		if f := c.useFault("load", PermLoad, FaultPermLoad, addr, n); f != nil {
			return f
		}
	}
	if need&PermStore != 0 {
		if f := c.useFault("store", PermStore, FaultPermStore, addr, n); f != nil {
			return f
		}
	}
	return newFault(FaultBounds, physOp, *c, addr, n)
}

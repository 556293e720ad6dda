package cheri

import "fmt"

// TMem is physical memory: a flat byte array that every access reaches
// through a capability check (or, for the Baseline and raw-mode bus
// masters, none). It holds data bytes only. A capability is a value code
// holds — a cVM's DDC, an entry pair, a gate argument, a port's DMA
// grant — and is never stored into memory, so no byte pattern written
// here can come back as a tagged capability: unforgeability holds by
// construction.
//
// A TMem belongs to one machine of one bed, and the bed's one goroutine
// is its only user (DESIGN.md §12).
type TMem struct {
	data []byte
	size uint64
}

// NewTMem allocates memory of the given size (rounded up to a
// granule multiple).
func NewTMem(size uint64) *TMem {
	size = (size + CapSize - 1) &^ (CapSize - 1)
	return &TMem{data: make([]byte, size), size: size}
}

// Size returns the memory size in bytes.
func (m *TMem) Size() uint64 { return m.size }

// Root returns the architectural root capability over all of memory.
func (m *TMem) Root() Cap { return NewRoot(0, m.size, PermAll) }

// inRange reports whether [addr, addr+n) is inside physical memory.
func (m *TMem) inRange(addr uint64, n int) bool {
	end := addr + uint64(n)
	return n > 0 && end >= addr && end <= m.size
}

// Load copies len(dst) bytes at addr into dst through capability c.
func (m *TMem) Load(c Cap, addr uint64, dst []byte) error {
	if !c.permits(PermLoad, addr, len(dst)) || !m.inRange(addr, len(dst)) {
		return accessFault(&c, PermLoad, "load", addr, len(dst))
	}
	copy(dst, m.data[addr:])
	return nil
}

// Store copies src into memory at addr through capability c.
func (m *TMem) Store(c Cap, addr uint64, src []byte) error {
	if !c.permits(PermStore, addr, len(src)) || !m.inRange(addr, len(src)) {
		return accessFault(&c, PermStore, "store", addr, len(src))
	}
	copy(m.data[addr:], src)
	return nil
}

// --- unchecked access (device DMA in raw mode, Baseline scenario) ---

// RawSlice returns a direct view of [addr, addr+n) with no capability
// check. It models the unprotected accesses of the non-CHERI Baseline and
// of bus masters that bypass capability checks.
func (m *TMem) RawSlice(addr uint64, n int) ([]byte, error) {
	if !m.inRange(addr, n) {
		return nil, fmt.Errorf("tmem: raw access [%#x,+%d) outside memory of size %#x", addr, n, m.size)
	}
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
}

// CheckedSlice verifies a load+store capability over the whole range and
// returns the backing slice. It models a checked bulk access (the bounds
// and permission checks execute once; the data movement is then performed
// at memcpy speed, as the hardware pipeline does for a sequence of
// in-bounds accesses).
func (m *TMem) CheckedSlice(c Cap, addr uint64, n int) ([]byte, error) {
	if !c.permits(PermLoad|PermStore, addr, n) || !m.inRange(addr, n) {
		return nil, accessFault(&c, PermLoad|PermStore, "slice", addr, n)
	}
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
}

// CheckedSliceRO verifies a load capability over the whole range and
// returns the backing slice for reading.
func (m *TMem) CheckedSliceRO(c Cap, addr uint64, n int) ([]byte, error) {
	if !c.permits(PermLoad, addr, n) || !m.inRange(addr, n) {
		return nil, accessFault(&c, PermLoad, "slice", addr, n)
	}
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
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

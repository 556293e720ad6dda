package dpdk

import (
	"fmt"

	"repro/internal/cheri"
)

// MemSeg is a contiguous packet-memory segment (DPDK's hugepage memseg).
// The owner received it at boot: a Baseline process simply mmaps it; a
// cVM is granted a capability over it by the Intravisor.
type MemSeg struct {
	mem  *cheri.TMem
	base uint64
	size uint64

	// capMode selects checked (CHERI) or raw (Baseline) access.
	capMode bool
	cap     cheri.Cap

	next uint64 // bump pointer
}

// NewMemSeg wraps [base, base+size) of mem. In capability mode, access
// is bounded by the provided capability (which must cover the range).
func NewMemSeg(mem *cheri.TMem, base, size uint64, c cheri.Cap, capMode bool) (*MemSeg, error) {
	if capMode {
		if !c.Tag() || !c.InBounds(base, 1) || !c.InBounds(base+size-1, 1) {
			return nil, fmt.Errorf("dpdk: capability %v does not cover segment [%#x,+%#x)", c, base, size)
		}
	}
	return &MemSeg{mem: mem, base: base, size: size, capMode: capMode, cap: c}, nil
}

// CapMode reports whether the segment enforces capability checks.
func (s *MemSeg) CapMode() bool { return s.capMode }

// Cap returns the segment capability (null in raw mode). Devices get
// their IOMMU window derived from it.
func (s *MemSeg) Cap() cheri.Cap { return s.cap }

// Alloc carves n bytes (aligned) out of the segment. Segment memory is
// never returned — DPDK pools live for the process lifetime.
func (s *MemSeg) Alloc(n, align uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("dpdk: zero-length allocation")
	}
	off := s.aligned(align) - s.base
	if off+n > s.size || off+n < off {
		return 0, fmt.Errorf("dpdk: segment exhausted (%d of %d used, want %d)", s.next, s.size, n)
	}
	s.next = off + n
	return s.base + off, nil
}

// aligned is where Alloc with this alignment would carve next.
func (s *MemSeg) aligned(align uint64) uint64 {
	align = max(align, 1)
	return s.base + (s.next+align-1)&^(align-1)
}

// PageEnd returns the end of the hugepage that holds addr: no view
// (Slice, SliceRO) from addr reaches past it.
func (s *MemSeg) PageEnd(addr uint64) uint64 { return s.mem.PageEnd(addr) }

// Used reports allocated bytes.
func (s *MemSeg) Used() uint64 { return s.next }

// Slice maps [addr, addr+n) read-write. In capability mode the access is
// bounds- and permission-checked through the segment capability; these
// checks are the CHERI datapath cost.
func (s *MemSeg) Slice(addr uint64, n int) ([]byte, error) {
	if s.capMode {
		return s.mem.CheckedSlice(s.cap.SetAddr(addr), addr, n)
	}
	return s.mem.RawSlice(addr, n)
}

// SliceRO maps [addr, addr+n) read-only.
func (s *MemSeg) SliceRO(addr uint64, n int) ([]byte, error) {
	if s.capMode {
		return s.mem.CheckedSliceRO(s.cap.SetAddr(addr), addr, n)
	}
	return s.mem.RawSlice(addr, n)
}

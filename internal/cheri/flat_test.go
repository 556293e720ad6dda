package cheri

import (
	"bytes"
	"math/rand"
	"testing"
)

// flatMem is TMem as it was before hugepages: one flat array, zeroed and
// resident from the start, any in-range slice of it a view. It is the
// reference the hugepage table is held to: same bytes, same faults,
// except that a view across a hugepage boundary is refused.
type flatMem struct {
	data []byte
	size uint64
}

func newFlatMem(size uint64) *flatMem {
	size = (size + CapSize - 1) &^ (CapSize - 1)
	return &flatMem{data: make([]byte, size), size: size}
}

func (m *flatMem) inRange(addr uint64, n int) bool {
	end := addr + uint64(n)
	return n > 0 && end >= addr && end <= m.size
}

func (m *flatMem) Load(c Cap, addr uint64, dst []byte) error {
	if !c.permits(PermLoad, addr, len(dst)) || !m.inRange(addr, len(dst)) {
		return accessFault(&c, PermLoad, "load", addr, len(dst))
	}
	copy(dst, m.data[addr:])
	return nil
}

func (m *flatMem) Store(c Cap, addr uint64, src []byte) error {
	if !c.permits(PermStore, addr, len(src)) || !m.inRange(addr, len(src)) {
		return accessFault(&c, PermStore, "store", addr, len(src))
	}
	copy(m.data[addr:], src)
	return nil
}

func (m *flatMem) RawSlice(addr uint64, n int) ([]byte, error) {
	if !m.inRange(addr, n) {
		return nil, errFlatRange
	}
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
}

func (m *flatMem) CheckedSlice(c Cap, addr uint64, n int) ([]byte, error) {
	if !c.permits(PermLoad|PermStore, addr, n) || !m.inRange(addr, n) {
		return nil, accessFault(&c, PermLoad|PermStore, "slice", addr, n)
	}
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
}

func (m *flatMem) CheckedSliceRO(c Cap, addr uint64, n int) ([]byte, error) {
	if !c.permits(PermLoad, addr, n) || !m.inRange(addr, n) {
		return nil, accessFault(&c, PermLoad, "slice", addr, n)
	}
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
}

var errFlatRange = &Fault{Kind: FaultBounds, Op: "raw"}

// walkMemSize is a machine-shaped memory: a short lowest page (the
// kernel's null page and code window) under three whole hugepages.
const walkMemSize = 0x101000 + 3*HugePageSize

// walkAddr draws an address where the two memories can differ: at or
// near a hugepage boundary, either end of memory, or anywhere in it.
func walkAddr(r *rand.Rand, m *TMem) uint64 {
	k := uint64(r.Intn(48))
	switch r.Intn(5) {
	case 0, 1:
		b := m.PageEnd(uint64(r.Intn(int(m.Size()))))
		if r.Intn(2) == 0 {
			return b - k
		}
		return b + k
	case 2:
		return k
	case 3:
		return m.Size() - k
	}
	return uint64(r.Intn(int(m.Size())))
}

// walkLen draws a length: non-positive, small, about a page, now and
// then up to a hugepage or several (for Load and Store, which cross
// them).
func walkLen(r *rand.Rand) int {
	switch r.Intn(16) {
	case 0:
		return -r.Intn(2)
	case 1:
		return 1 + r.Intn(HugePageSize)
	case 2:
		return 1 + r.Intn(3*HugePageSize)
	case 3, 4, 5:
		return 1 + r.Intn(4096)
	}
	return 1 + r.Intn(64)
}

// walkCap draws the capability an access goes through: the root, a
// random window of memory, or a load-only or untagged copy of one.
func walkCap(r *rand.Rand, m *TMem) Cap {
	c := m.Root()
	if r.Intn(3) == 0 {
		base := walkAddr(r, m) % m.Size()
		n, err := c.SetAddr(base).SetBounds(uint64(r.Intn(int(m.Size() - base + 1))))
		if err == nil {
			c = n
		}
	}
	switch r.Intn(8) {
	case 0:
		c, _ = c.AndPerms(PermLoad)
	case 1:
		c = c.ClearTag()
	}
	return c
}

// TestTMemMatchesFlatReference runs a seeded random walk of loads,
// stores and the three views through the hugepage table and the flat
// reference side by side: every access must fault alike and move the
// same bytes, and the memories must hold the same bytes at the end. The
// one intended difference is pinned: a view the reference gives across
// a hugepage boundary is a bounds fault under "hugepage" (an error from
// RawSlice), never a panic and never a partial view.
func TestTMemMatchesFlatReference(t *testing.T) {
	m, ref := NewTMem(walkMemSize), newFlatMem(walkMemSize)
	if m.Size() != ref.size {
		t.Fatalf("size %#x, reference %#x", m.Size(), ref.size)
	}
	r := rand.New(rand.NewSource(37))
	seen := map[string]int{}
	buf, refBuf := make([]byte, 3*HugePageSize), make([]byte, 3*HugePageSize)
	for i := 0; i < 5000; i++ {
		c, addr, n := walkCap(r, m), walkAddr(r, m), walkLen(r)
		crosses := n > 0 && m.PageEnd(addr) < addr+uint64(n)
		switch op := r.Intn(5); op {
		case 0, 1:
			var b, rb []byte
			if n > 0 {
				b, rb = buf[:n], refBuf[:n]
			}
			var err, rerr error
			if op == 0 {
				err, rerr = m.Load(c, addr, b), ref.Load(c, addr, rb)
				if err == nil && !bytes.Equal(b, rb) {
					t.Fatalf("step %d: Load [%#x,+%d) read other bytes than the reference", i, addr, n)
				}
			} else {
				r.Read(b)
				copy(rb, b)
				err, rerr = m.Store(c, addr, b), ref.Store(c, addr, rb)
			}
			sameErr(t, "Load/Store", err, rerr)
			if err == nil && crosses {
				seen["copy across a boundary"]++
			}
		default:
			var v, rv []byte
			var err, rerr error
			switch op {
			case 2:
				v, err = m.RawSlice(addr, n)
				rv, rerr = ref.RawSlice(addr, n)
				if err != nil {
					err = errFlatRange // the message differs, not the outcome
				}
			case 3:
				v, err = m.CheckedSlice(c, addr, n)
				rv, rerr = ref.CheckedSlice(c, addr, n)
			default:
				v, err = m.CheckedSliceRO(c, addr, n)
				rv, rerr = ref.CheckedSliceRO(c, addr, n)
			}
			if rerr == nil && crosses {
				// The intended difference: refused whole, as physical memory.
				f, ok := err.(*Fault)
				if v != nil || !ok || f.Kind != FaultBounds || (op != 2 && f.Op != "hugepage") {
					t.Fatalf("step %d: view [%#x,+%d) across %#x: %v, %v; want a bounds fault", i, addr, n, m.PageEnd(addr), len(v), err)
				}
				seen["view refused across a boundary"]++
				continue
			}
			sameErr(t, "view", err, rerr)
			if err != nil {
				continue
			}
			if len(v) != n || cap(v) != n || !bytes.Equal(v, rv) {
				t.Fatalf("step %d: view [%#x,+%d) is len %d cap %d, or other bytes than the reference", i, addr, n, len(v), cap(v))
			}
			r.Read(v) // a device or a checked bulk copy writing through it
			copy(rv, v)
			seen["view"]++
		}
	}
	for _, want := range []string{"copy across a boundary", "view refused across a boundary", "view"} {
		if seen[want] == 0 {
			t.Errorf("the walk never made a %s: %v", want, seen)
		}
	}
	all := make([]byte, m.Size())
	if err := m.Load(m.Root(), 0, all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, ref.data) {
		t.Fatal("after the walk the memories hold different bytes")
	}
}

// TestTMemBacksWhatIsTouched: a memory costs no hugepage until an
// access reaches one, then exactly the pages accesses reached.
func TestTMemBacksWhatIsTouched(t *testing.T) {
	m := NewTMem(walkMemSize)
	if got := m.HugePages(); got != 0 {
		t.Fatalf("a fresh memory backs %d hugepages, want 0", got)
	}
	top := m.Size() - HugePageSize // the lowest byte of the top page
	if m.PageEnd(0) != 0x101000 || m.PageEnd(top) != m.Size() || m.PageEnd(top-1) != top {
		t.Fatalf("grid: page ends %#x, %#x, %#x; want the short page [0,0x101000) and whole pages up to %#x",
			m.PageEnd(0), m.PageEnd(top), m.PageEnd(top-1), m.Size())
	}
	if _, err := m.CheckedSlice(m.Root(), top, 64); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(m.Root(), top-8, make([]byte, 16)); err != nil { // across a boundary
		t.Fatal(err)
	}
	if got := m.HugePages(); got != 2 {
		t.Fatalf("a view into the top page and a store across its lower boundary back %d hugepages, want 2", got)
	}
}

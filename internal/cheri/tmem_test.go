package cheri

import (
	"bytes"
	"testing"
)

func TestTMemRoundTrip(t *testing.T) {
	m := NewTMem(4096)
	c := m.Root()
	want := []byte("hello, compartment")
	if err := m.Store(c, 0x100, want); err != nil {
		t.Fatalf("Store: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.Load(c, 0x100, got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip: got %q want %q", got, want)
	}
}

func TestTMemSizeRoundsToGranule(t *testing.T) {
	m := NewTMem(17)
	if m.Size() != 32 {
		t.Fatalf("size = %d, want 32", m.Size())
	}
}

func TestTMemRejectsOutOfBoundsCapability(t *testing.T) {
	m := NewTMem(4096)
	narrow, err := m.Root().SetAddr(0x100).SetBounds(0x10)
	if err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	if err := m.Store(narrow, 0x110, []byte{1}); !IsFault(err, FaultBounds) {
		t.Fatalf("oob store: got %v, want bounds fault", err)
	}
	buf := make([]byte, 1)
	if err := m.Load(narrow, 0xff, buf); !IsFault(err, FaultBounds) {
		t.Fatalf("oob load: got %v, want bounds fault", err)
	}
}

func TestTMemPhysicalRange(t *testing.T) {
	m := NewTMem(64)
	// Forged root wider than physical memory: physical check still trips.
	wide := NewRoot(0, 1<<20, PermAll)
	if err := m.Store(wide, 128, []byte{1}); !IsFault(err, FaultBounds) {
		t.Fatalf("beyond-physical store: got %v, want bounds fault", err)
	}
}

func TestScalarHelpers(t *testing.T) {
	m := NewTMem(256)
	c := m.Root()
	if err := m.StoreU16(c, 0, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreU32(c, 4, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreU64(c, 8, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	if v, err := m.LoadU16(c, 0); err != nil || v != 0xBEEF {
		t.Fatalf("LoadU16 = %#x, %v", v, err)
	}
	if v, err := m.LoadU32(c, 4); err != nil || v != 0xDEADBEEF {
		t.Fatalf("LoadU32 = %#x, %v", v, err)
	}
	if v, err := m.LoadU64(c, 8); err != nil || v != 0x0102030405060708 {
		t.Fatalf("LoadU64 = %#x, %v", v, err)
	}
	ro, _ := c.AndPerms(PermLoad)
	if err := m.StoreU32(ro, 4, 1); !IsFault(err, FaultPermStore) {
		t.Fatalf("store via ro cap: got %v, want permit-store fault", err)
	}
}

func TestCapStoreLoadPreservesTag(t *testing.T) {
	m := NewTMem(4096)
	root := m.Root()
	v, err := root.SetAddr(0x200).SetBounds(0x40)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreCap(root, 0x100, v); err != nil {
		t.Fatalf("StoreCap: %v", err)
	}
	if !m.TagAt(0x100) {
		t.Fatal("granule tag not set after StoreCap")
	}
	got, err := m.LoadCap(root, 0x100)
	if err != nil {
		t.Fatalf("LoadCap: %v", err)
	}
	if !got.Tag() || got.Base() != v.Base() || got.Len() != v.Len() || got.Perms() != v.Perms() {
		t.Fatalf("LoadCap = %v, want %v", got, v)
	}
}

func TestDataStoreClearsCapTag(t *testing.T) {
	m := NewTMem(4096)
	root := m.Root()
	v, _ := root.SetAddr(0x200).SetBounds(0x40)
	if err := m.StoreCap(root, 0x100, v); err != nil {
		t.Fatal(err)
	}
	// Overwrite one byte inside the granule: the tag must clear and the
	// later capability load must yield an untagged value (forgery defeated).
	if err := m.Store(root, 0x105, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if m.TagAt(0x100) {
		t.Fatal("tag survived a data overwrite")
	}
	got, err := m.LoadCap(root, 0x100)
	if err != nil {
		t.Fatalf("LoadCap: %v", err)
	}
	if got.Tag() {
		t.Fatal("forged capability came back tagged")
	}
	if err := got.CheckLoad(got.Addr(), 1); !IsFault(err, FaultTag) {
		t.Fatalf("use of forged cap: got %v, want tag fault", err)
	}
}

func TestCapStoreAlignment(t *testing.T) {
	m := NewTMem(4096)
	root := m.Root()
	v, _ := root.SetAddr(0x200).SetBounds(0x40)
	if err := m.StoreCap(root, 0x101, v); !IsFault(err, FaultAlignment) {
		t.Fatalf("misaligned StoreCap: got %v, want alignment fault", err)
	}
	if _, err := m.LoadCap(root, 0x101); !IsFault(err, FaultAlignment) {
		t.Fatalf("misaligned LoadCap: got %v, want alignment fault", err)
	}
}

func TestStoreCapPermissions(t *testing.T) {
	m := NewTMem(4096)
	root := m.Root()
	v, _ := root.SetAddr(0x200).SetBounds(0x40)
	// Without PermStoreCap a tagged capability cannot be stored.
	noSC, _ := root.AndPerms(PermLoad | PermStore)
	if err := m.StoreCap(noSC, 0x100, v); !IsFault(err, FaultPermStoreCap) {
		t.Fatalf("StoreCap without W: got %v, want permit-store-cap fault", err)
	}
	// Without PermLoadCap a loaded capability loses its tag.
	if err := m.StoreCap(root, 0x100, v); err != nil {
		t.Fatal(err)
	}
	noLC, _ := root.AndPerms(PermLoad | PermStore)
	got, err := m.LoadCap(noLC, 0x100)
	if err != nil {
		t.Fatalf("LoadCap: %v", err)
	}
	if got.Tag() {
		t.Fatal("tag must be stripped when loading without PermLoadCap")
	}
}

func TestStoreLocalCapability(t *testing.T) {
	m := NewTMem(4096)
	root := m.Root()
	local, err := root.SetAddr(0x200).SetBounds(0x40)
	if err != nil {
		t.Fatal(err)
	}
	local, err = local.AndPerms(PermData &^ PermGlobal)
	if err != nil {
		t.Fatal(err)
	}
	// A store-cap-capable capability without PermStoreLocalCap cannot
	// store a non-global capability.
	noSL, _ := root.AndPerms(PermLoad | PermStore | PermLoadCap | PermStoreCap)
	if err := m.StoreCap(noSL, 0x100, local); !IsFault(err, FaultPermStoreCap) {
		t.Fatalf("local store without l perm: got %v, want fault", err)
	}
	if err := m.StoreCap(root, 0x100, local); err != nil {
		t.Fatalf("local store with l perm: %v", err)
	}
}

func TestRawSliceAndInvalidate(t *testing.T) {
	m := NewTMem(4096)
	root := m.Root()
	v, _ := root.SetAddr(0x200).SetBounds(0x40)
	if err := m.StoreCap(root, 0x100, v); err != nil {
		t.Fatal(err)
	}
	s, err := m.RawSlice(0x100, 16)
	if err != nil {
		t.Fatalf("RawSlice: %v", err)
	}
	s[0] = 0xAA // device write, no capability involved
	m.RawInvalidate(0x100, 16)
	if m.TagAt(0x100) {
		t.Fatal("RawInvalidate did not clear the tag")
	}
	if _, err := m.RawSlice(4090, 16); err == nil {
		t.Fatal("RawSlice beyond memory must fail")
	}
}

func TestCheckedSlice(t *testing.T) {
	m := NewTMem(4096)
	c, err := m.Root().SetAddr(0x100).SetBounds(0x100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.CheckedSlice(c, 0x100, 0x100)
	if err != nil {
		t.Fatalf("CheckedSlice: %v", err)
	}
	if len(s) != 0x100 {
		t.Fatalf("slice len = %d", len(s))
	}
	if _, err := m.CheckedSlice(c, 0x1c0, 0x80); !IsFault(err, FaultBounds) {
		t.Fatalf("oob CheckedSlice: got %v, want bounds fault", err)
	}
	ro, _ := c.AndPerms(PermLoad)
	if _, err := m.CheckedSlice(ro, 0x100, 8); !IsFault(err, FaultPermStore) {
		t.Fatalf("rw slice via ro cap: got %v, want permit-store fault", err)
	}
	if _, err := m.CheckedSliceRO(ro, 0x100, 8); err != nil {
		t.Fatalf("ro slice via ro cap: %v", err)
	}
}

func TestCheckedSliceClearsTags(t *testing.T) {
	m := NewTMem(4096)
	root := m.Root()
	v, _ := root.SetAddr(0x200).SetBounds(0x40)
	if err := m.StoreCap(root, 0x100, v); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckedSlice(root, 0x100, 16); err != nil {
		t.Fatal(err)
	}
	if m.TagAt(0x100) {
		t.Fatal("writable slice over a capability granule must clear its tag")
	}
}

// TestStoreClearsExactlyTheGranulesItTouches drives the tag bitmap
// against a one-bool-per-granule model: stores of every alignment and
// of lengths that stay inside one 64-granule word, end on its last
// granule, and span two or three words must clear the tags of exactly
// the granules they overlap — neighbours, and their stored
// capabilities, survive.
func TestStoreClearsExactlyTheGranulesItTouches(t *testing.T) {
	const granules = 4 * 64
	m := NewTMem(granules * CapSize)
	root := m.Root()
	v, err := root.SetAddr(0x40).SetBounds(0x40)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]bool, granules)
	retag := func() {
		for g := range model {
			if err := m.StoreCap(root, uint64(g)*CapSize, v); err != nil {
				t.Fatal(err)
			}
			model[g] = true
		}
	}
	buf := make([]byte, 3*64*CapSize)
	for _, start := range []uint64{0, 1, 15, 16, 62*CapSize + 7, 63 * CapSize, 64*CapSize - 1, 64 * CapSize, 100*CapSize + 3} {
		for _, n := range []int{1, 2, 16, 17, 64, 1514, 64 * CapSize, 64*CapSize + 1, 130 * CapSize} {
			if start+uint64(n) > m.Size() {
				continue
			}
			retag()
			if err := m.Store(root, start, buf[:n]); err != nil {
				t.Fatal(err)
			}
			for g := start / CapSize; g <= (start+uint64(n)-1)/CapSize; g++ {
				model[g] = false
			}
			for g, want := range model {
				addr := uint64(g) * CapSize
				if got := m.TagAt(addr); got != want {
					t.Fatalf("store [%#x,+%d): granule %d tag = %v, want %v", start, n, g, got, want)
				}
				if c, err := m.LoadCap(root, addr); err != nil || c.Tag() != want {
					t.Fatalf("store [%#x,+%d): granule %d LoadCap tag = %v (err %v), want %v", start, n, g, c.Tag(), err, want)
				}
			}
		}
	}
}

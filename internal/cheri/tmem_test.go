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

func TestRawSlice(t *testing.T) {
	m := NewTMem(4096)
	s, err := m.RawSlice(0x100, 16)
	if err != nil {
		t.Fatalf("RawSlice: %v", err)
	}
	s[0] = 0xAA // device write, no capability involved
	got := make([]byte, 1)
	if err := m.Load(m.Root(), 0x100, got); err != nil || got[0] != 0xAA {
		t.Fatalf("raw write not seen by a checked load: %#x, %v", got[0], err)
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

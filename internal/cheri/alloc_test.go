//go:build !race

package cheri

import "testing"

// TestCheckedSliceZeroAllocs pins the success path of both checked
// slices at zero allocations: a check that passes builds no fault, and
// the capability it was handed stays where the caller put it. Skipped
// under the race detector, whose instrumentation allocates.
func TestCheckedSliceZeroAllocs(t *testing.T) {
	m := NewTMem(1 << 20)
	c, err := m.Root().SetAddr(0x1000).SetBounds(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 1448} {
		if a := testing.AllocsPerRun(100, func() {
			if sliceSink, err = m.CheckedSliceRO(c, 0x1000, n); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("CheckedSliceRO of %d bytes: %v allocs, want 0", n, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			if sliceSink, err = m.CheckedSlice(c, 0x1000, n); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("CheckedSlice of %d bytes: %v allocs, want 0", n, a)
		}
	}
}

//go:build !race

package dpdk

import (
	"testing"

	"repro/internal/cheri"
)

// TestMempoolAllocsIndependentOfSize pins the mbuf header slab: a pool's
// headers are one array, as a DPDK mempool's are, so building a pool of
// 4096 mbufs costs the same allocations as one of 64. One allocation
// per header made the pools the largest allocation site of a bed build.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestMempoolAllocsIndependentOfSize(t *testing.T) {
	mem := cheri.NewTMem(1 << 16) // NewMempool touches no payload byte
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			seg, err := NewMemSeg(mem, 0, poolBytes(&MemSeg{mem: mem}, 0, n, DefaultDataroom), cheri.NullCap, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewMempool(seg, "pin", n, DefaultDataroom); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Fatalf("a pool of 64 mbufs costs %v allocations, one of 4096 %v: want equal", small, large)
	}
}

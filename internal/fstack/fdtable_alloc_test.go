//go:build !race

package fstack

import "testing"

// TestFDTableOpenCloseOneAtATime pins the thrash case the page-release
// rule exists for: a caller that opens one descriptor, closes it and
// opens the next must allocate only the pages the descriptor counter
// crosses — never one per open — and hold a single page throughout.
func TestFDTableOpenCloseOneAtATime(t *testing.T) {
	const cycles = 10_000
	var tab fdTable[*int]
	v := new(int)
	tab.put(3, v) // the first page, outside the measurement
	tab.del(3)
	fd := 4
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < cycles; i++ {
			tab.put(fd, v)
			if tab.get(fd) != v {
				t.Fatalf("fd %d lost", fd)
			}
			tab.del(fd)
			fd++
		}
	})
	// AllocsPerRun runs the body twice (one warm-up): per run, one page
	// per boundary crossed plus the amortised growth of the page index.
	crossed := float64(cycles/fdPageLen + 1)
	if allocs > crossed+12 {
		t.Fatalf("%d open/close cycles cost %.0f allocations, want ≈ %.0f (one per page crossed)", cycles, allocs, crossed)
	}
	held := 0
	for _, p := range tab.pages {
		if p.slot != nil {
			held++
		}
	}
	if held != 1 || tab.len() != 0 {
		t.Fatalf("after the cycles: %d pages held, %d entries; want the newest page only, empty", held, tab.len())
	}
}

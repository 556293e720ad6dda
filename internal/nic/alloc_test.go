//go:build !race

package nic

import (
	"runtime"
	"testing"
)

// TestFrameArenaAllocsPerChunk pins the arena's chunked refill: an empty
// arena allocates frameChunk fresh frames at once, so filling a deep
// queue costs one allocation per frameChunk frames (the first refill
// also sizes the free list), and a frame that goes back to the arena is
// reused without one.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestFrameArenaAllocsPerChunk(t *testing.T) {
	a := NewFrameArena()
	held := make([][]byte, 4*frameChunk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range held {
		held[i] = a.Alloc(maxFrame)
	}
	runtime.ReadMemStats(&after)
	if got, want := after.Mallocs-before.Mallocs, uint64(len(held)/frameChunk)+1; got != want {
		t.Fatalf("%d fresh frames cost %d allocations, want %d", len(held), got, want)
	}
	for _, b := range held {
		a.Free(b)
	}
	cycle := func() {
		for i := range held {
			held[i] = a.Alloc(60)
		}
		for _, b := range held {
			a.Free(b)
		}
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("recycling %d frames costs %v allocations, want 0", len(held), got)
	}
}

//go:build !race

package netem

import "testing"

// TestNetemFrameZeroAllocs pins a frame's trip through an impaired link
// — enqueue in the delay line, release, delivery — at zero allocations,
// beside the DatapathFrame, ConnChurn and UDPRoundTrip pins in fstack.
// Under container/heap it was two per frame (one boxing per Push, one
// per Pop).
//
// Skipped under the race detector, whose instrumentation allocates.
func TestNetemFrameZeroAllocs(t *testing.T) {
	step := frameLoop()
	for i := 0; i < 64; i++ {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Fatalf("a frame through the delay line costs %v allocs, want 0", a)
	}
}

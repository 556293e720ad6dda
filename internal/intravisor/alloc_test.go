//go:build !race

package intravisor

import (
	"testing"

	"repro/internal/hostos"
)

// TestCrossingsDoNotAllocate pins both crossings at zero allocations: a
// gate call with a buffer capability, and a trampoline syscall.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestCrossingsDoNotAllocate(t *testing.T) {
	g, app, buf := gateBed(t)
	if a := testing.AllocsPerRun(1000, func() { g.Call(app, hostos.Args{1}, buf) }); a != 0 {
		t.Fatalf("Gate.Call allocates %.2f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { app.Syscall(MuslClockGettime, hostos.Args{LinuxClockMonotonicRaw}) }); a != 0 {
		t.Fatalf("CVM.Syscall allocates %.2f allocs/op, want 0", a)
	}
}

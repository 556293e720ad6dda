package intravisor

import (
	"testing"

	"repro/internal/cheri"
	"repro/internal/hostos"
)

// gateBed is a stack cVM exporting one gate that answers a[0]+1, an app
// cVM calling it, and a 16 KiB buffer capability of the app's (the shape
// of the ff_write gate's argument).
func gateBed(tb testing.TB) (g *Gate, app *CVM, buf cheri.Cap) {
	tb.Helper()
	iv := newIV(tb)
	stack, _ := iv.CreateCVM("stack", 1<<20)
	app, _ = iv.CreateCVM("app", 1<<20)
	g, err := iv.NewGate(stack, func(_ *CVM, a hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) { return a[0] + 1, hostos.OK })
	if err != nil {
		tb.Fatal(err)
	}
	if buf, err = app.DeriveBuf(app.Base()+4096, 16<<10); err != nil {
		tb.Fatal(err)
	}
	return g, app, buf
}

// BenchmarkGateCall is one served cross-compartment call: the buffer
// capability's re-derivation, the sealed pair's CInvoke check, the target
// and the booking.
func BenchmarkGateCall(b *testing.B) {
	g, app, buf := gateBed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, errno := g.Call(app, hostos.Args{uint64(i)}, buf); errno != hostos.OK || r != uint64(i)+1 {
			b.Fatalf("call %d: r=%d errno=%v", i, r, errno)
		}
	}
}

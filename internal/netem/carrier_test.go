package netem

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestCarrierFlapDropsWhileDown pins the primitive's core semantics:
// frames offered during a down window are dropped at enqueue and
// counted distinctly from the loss models, frames outside it pass, and
// the accessor tracks the schedule.
func TestCarrierFlapDropsWhileDown(t *testing.T) {
	clk := sim.NewVClock()
	var a, b recorder
	l := New(clk, &a, &b, Config{})
	// Down [100µs, 300µs), up again after.
	l.SetCarrierSchedule(0, []int64{100_000, 300_000})

	l.Send(0, []byte("before"), 50_000)
	l.Send(0, []byte("during"), 200_000)
	l.Send(0, []byte("after"), 400_000)

	if len(b.frames) != 2 {
		t.Fatalf("deliveries: %d, want 2 (during-window frame dropped)", len(b.frames))
	}
	st := l.Stats(0)
	if st.Sent != 3 || st.Delivered != 2 || st.DroppedCarrier != 1 || st.Lost() != 1 {
		t.Fatalf("stats: %v", st)
	}
	if st.LostRandom != 0 || st.LostBurst != 0 || st.DroppedQueue != 0 {
		t.Fatalf("carrier drop leaked into loss-model counters: %v", st)
	}
	if !l.Carrier(0, 400_000) {
		t.Fatalf("carrier should be back up at 400µs")
	}
	// The untouched reverse direction never flaps.
	l.Send(1, []byte("reverse"), 200_000)
	if len(a.frames) != 1 {
		t.Fatalf("reverse direction affected by dir-0 schedule")
	}
}

// TestCarrierFlapOnImpairedLink checks the flap applies before the
// loss models and the bottleneck on a non-pristine config, and that
// held frames already past the enqueue still deliver ("down =
// enqueue→drop", not a delivery gate).
func TestCarrierFlapOnImpairedLink(t *testing.T) {
	clk := sim.NewVClock()
	var b recorder
	l := New(clk, &recorder{}, &b, Config{DelayNS: 500_000})
	l.SetCarrierSchedule(0, []int64{100_000})

	// Enqueued while up at t=0; due at t=500µs — inside the down
	// window — and must still deliver.
	l.Send(0, []byte("inflight"), 0)
	// Offered while down: dropped, never enters the delay line.
	l.Send(0, []byte("dead"), 200_000)

	clk.Advance(600_000)
	l.Pump(clk.Now())
	if len(b.frames) != 1 || b.frames[0].at != 500_000 {
		t.Fatalf("in-flight frame lost or retimed: %+v", b.frames)
	}
	if st := l.Stats(0); st.DroppedCarrier != 1 || st.Delivered != 1 {
		t.Fatalf("stats: %v", st)
	}
}

// TestCarrierNextDeadlineAndTrace pins the leaping-driver contract
// (every pending toggle instant is a deadline) and the EvLinkCarrier /
// DropCarrier trace records.
func TestCarrierNextDeadlineAndTrace(t *testing.T) {
	clk := sim.NewVClock()
	var b recorder
	l := New(clk, &recorder{}, &b, Config{})
	tr := obs.NewTrace(64)
	l.SetTrace(tr, 40)
	l.SetCarrierSchedule(0, []int64{1_000_000, 2_000_000})

	if d := l.NextDeadline(1, 0); d != 1_000_000 {
		t.Fatalf("NextDeadline before first toggle: %d", d)
	}
	l.Pump(1_500_000) // consume the down edge
	if d := l.NextDeadline(1, 0); d != 2_000_000 {
		t.Fatalf("NextDeadline between toggles: %d", d)
	}
	l.Send(0, []byte("x"), 1_600_000) // dropped: carrier down
	l.Pump(2_500_000)                 // consume the up edge
	if d := l.NextDeadline(1, 0); d != math.MaxInt64 {
		t.Fatalf("NextDeadline after schedule exhausted: %d", d)
	}

	var edges, drops int
	for _, ev := range tr.Snapshot() {
		switch ev.Type {
		case obs.EvLinkCarrier:
			if ev.Src != 40 {
				t.Fatalf("carrier event src %d, want 40", ev.Src)
			}
			wantUp := int64(0)
			if edges == 1 {
				wantUp = 1
			}
			wantTS := []int64{1_000_000, 2_000_000}[edges]
			if ev.A != wantUp || ev.TS != wantTS {
				t.Fatalf("edge %d: up=%d ts=%d", edges, ev.A, ev.TS)
			}
			edges++
		case obs.EvNetemDrop:
			if ev.B != obs.DropCarrier {
				t.Fatalf("drop kind %d, want DropCarrier", ev.B)
			}
			drops++
		}
	}
	if edges != 2 || drops != 1 {
		t.Fatalf("edges=%d drops=%d, want 2 and 1", edges, drops)
	}
}

// TestCarrierSchedulelessLinkUnchanged guards the zero-cost path: a
// link without a schedule reports carrier up forever and its String()
// carries no carrier term.
func TestCarrierSchedulelessLinkUnchanged(t *testing.T) {
	clk := sim.NewVClock()
	var b recorder
	l := New(clk, &recorder{}, &b, Config{})
	if !l.Carrier(0, 1e9) || !l.Carrier(1, 1e9) {
		t.Fatalf("scheduleless link must report carrier up")
	}
	l.Send(0, []byte("x"), 0)
	if got := l.Stats(0).String(); got != "sent 1, delivered 1, lost 0 (iid 0, burst 0, queue 0), reordered 0" {
		t.Fatalf("String() drifted: %q", got)
	}
}

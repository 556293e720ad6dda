package netem

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// refLinkDeadline is the link-wide answer Link.NextDeadline gave before
// it took the receiving end — the earliest delay-line head or carrier
// toggle in either direction — recomputed from the state itself.
func refLinkDeadline(l *Link) int64 {
	at := int64(math.MaxInt64)
	for i := range l.dirs {
		d := &l.dirs[i]
		if d.held.len() > 0 {
			at = min(at, d.held.first().deliverAt)
		}
		if len(d.carr) > 0 {
			at = min(at, d.carr[0])
		}
	}
	return at
}

// stamped is one delivery: which frame, its arrival instant, and the
// tick at which a Pump (or Send) handed it over.
type stamped struct {
	id         byte
	readyAt    int64
	releasedAt int64
}

// stamper is an Endpoint recording deliveries against the rig's clock.
type stamper struct {
	clk *sim.VClock
	got []stamped
}

func (s *stamper) DeliverFrame(data []byte, readyAt int64) {
	s.got = append(s.got, stamped{data[0], readyAt, s.clk.Now()})
}

// TestPerEndDeadlineMatchesEveryTickPump holds the per-end answer to the
// every-tick pump on an asymmetric link with jitter, reordering and a
// carrier schedule in each direction: a link pumped only at the ticks
// some end's NextDeadline announces hands every frame to the same end at
// the same tick as a link pumped every tick, a delivery to end e happens
// only at a tick end e announced, the carrier edges trace identically,
// and the earlier of the two ends' answers is the old link-wide one.
func TestPerEndDeadlineMatchesEveryTickPump(t *testing.T) {
	const tick = 5_000
	type rig struct {
		clk  *sim.VClock
		l    *Link
		ends [2]*stamper
		tr   *obs.Trace
	}
	newRig := func() *rig {
		r := &rig{clk: sim.NewVClock(), tr: obs.NewTrace(256)}
		r.ends = [2]*stamper{{clk: r.clk}, {clk: r.clk}}
		r.l = NewAsym(r.clk, r.ends[0], r.ends[1],
			Config{Seed: 3, DelayNS: 200_000, JitterNS: 90_000, ReorderProb: 0.1, ReorderExtraNS: 60_000},
			Config{Seed: 3, DelayNS: 35_000, JitterNS: 20_000, RateBps: 50e6})
		r.l.SetTrace(r.tr, 10)
		r.l.SetCarrierSchedule(0, []int64{1_003_000, 1_400_000, 2_750_000})
		r.l.SetCarrierSchedule(1, []int64{611_000, 640_000})
		return r
	}
	ref, got := newRig(), newRig()
	rng := rand.New(rand.NewSource(5))
	pumps, announcedTo := 0, [2]int{}
	for step := 0; step < 800; step++ {
		now := got.clk.Now()
		to0, to1 := got.l.NextDeadline(0, now), got.l.NextDeadline(1, now)
		if want := refLinkDeadline(got.l); min(to0, to1) != want {
			t.Fatalf("at %d: ends answer %d and %d, the link-wide deadline is %d", now, to0, to1, want)
		}
		ref.l.Pump(now)
		before := [2]int{len(got.ends[0].got), len(got.ends[1].got)}
		if to0 <= now || to1 <= now {
			got.l.Pump(now)
			pumps++
		}
		for e, at := range [2]int64{to0, to1} {
			if at <= now {
				announcedTo[e]++
			} else if len(got.ends[e].got) != before[e] {
				t.Fatalf("at %d: a frame reached end %d, whose deadline was %d", now, e, at)
			}
		}
		// Sparse toward end 0, denser toward end 1, so the two ends'
		// deadlines fall on different ticks most of the time.
		for from, p := range [2]float64{0.3, 0.04} {
			if rng.Float64() < p {
				frame := append([]byte{byte(step)}, make([]byte, 200+rng.Intn(1200))...)
				ref.l.Send(from, frame, now)
				got.l.Send(from, slices.Clone(frame), now)
			}
		}
		ref.clk.Advance(tick)
		got.clk.Advance(tick)
	}
	for e := range got.ends {
		if !slices.Equal(got.ends[e].got, ref.ends[e].got) {
			t.Fatalf("end %d: deliveries differ from the every-tick pump:\n got %v\nwant %v", e, got.ends[e].got, ref.ends[e].got)
		}
		if len(got.ends[e].got) < 10 {
			t.Fatalf("end %d received %d frames; the script checked nothing", e, len(got.ends[e].got))
		}
	}
	if g, r := got.tr.Snapshot(), ref.tr.Snapshot(); !slices.Equal(g, r) {
		t.Fatalf("trace differs from the every-tick pump:\n got %v\nwant %v", g, r)
	}
	t.Logf("pumps %d announced %v frames %d %d", pumps, announcedTo, len(got.ends[0].got), len(got.ends[1].got))
	if announcedTo[0] == announcedTo[1] || pumps > 400 {
		t.Fatalf("%d pumps in 800 ticks, %d and %d announced per end: the ends' deadlines never diverged", pumps, announcedTo[0], announcedTo[1])
	}
}

package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hostos"
)

// refSerializer is sim.Serializer as it was while the NIC line, the bus
// shares and the CPU budget each held one, kept verbatim (but for its
// name) as the reference a Core with a rate and a window is held to:
//
// It models a transmission resource with a fixed bit rate (an
// Ethernet line, a PCI bus). Admitting n cost-bytes books n*8/rate of
// resource time; when the resource is booked further than maxAhead past
// the current clock, admission fails and the caller must retry later
// (ring backpressure, exactly how a full NIC queue behaves).
//
// The "how far ahead" window stands in for the device FIFO: a couple of
// frame times is realistic and keeps the model work-conserving.
type refSerializer struct {
	clk      hostos.Clock
	bitsPerS float64
	maxAhead int64 // ns
	nextFree int64 // ns timestamp at which the resource is free
}

// newRefSerializer creates a serializer at rate bits/s with the given
// booking window.
func newRefSerializer(clk hostos.Clock, bitsPerS float64, maxAheadNS int64) *refSerializer {
	if bitsPerS <= 0 {
		panic("sim: serializer rate must be positive")
	}
	return &refSerializer{clk: clk, bitsPerS: bitsPerS, maxAhead: maxAheadNS}
}

// Admit books costBytes of resource time. It returns the absolute time
// at which the transfer completes and true, or 0 and false when the
// resource is over-booked (caller retries on a later poll).
func (s *refSerializer) Admit(costBytes int) (doneAt int64, ok bool) {
	now := s.clk.Now()
	if s.nextFree < now {
		s.nextFree = now
	}
	if s.nextFree-now > s.maxAhead {
		return 0, false
	}
	s.nextFree += int64(float64(costBytes*8) / s.bitsPerS * 1e9)
	return s.nextFree, true
}

// Book charges costBytes of resource time unconditionally, returning
// the completion instant. Unlike Admit it never refuses: callers use it
// to account for work that has already happened (e.g. a CPU model
// charging for a burst it just processed), accepting transient
// overshoot past the window; CanAdmit then stays false until the clock
// catches up, so the long-run rate is still honored exactly.
func (s *refSerializer) Book(costBytes int) (doneAt int64) {
	now := s.clk.Now()
	if s.nextFree < now {
		s.nextFree = now
	}
	s.nextFree += int64(float64(costBytes*8) / s.bitsPerS * 1e9)
	return s.nextFree
}

// CanAdmit reports whether an admission would currently succeed, without
// booking anything. Callers that must atomically admit on two resources
// (line and bus) use it to avoid booking one when the other would refuse.
func (s *refSerializer) CanAdmit() bool {
	now := s.clk.Now()
	next := s.nextFree
	if next < now {
		next = now
	}
	return next-now <= s.maxAhead
}

// NextAdmitAt reports the earliest instant at which CanAdmit will be
// true: now when the window has room already, otherwise the moment the
// existing bookings drain back inside it. Bookings only move on Admit/
// Book calls — which are work, happening on visited instants — so the
// value stays exact across a quiescent stretch, which is what lets the
// event-driven driver leap straight to it.
func (s *refSerializer) NextAdmitAt(now int64) int64 {
	at := s.nextFree - s.maxAhead
	if at < now {
		return now
	}
	return at
}

// SetRate changes the rate for future admissions (already-booked
// transfers keep their completion times). The bus arbiter uses it to
// redistribute bandwidth as ports become active and idle.
func (s *refSerializer) SetRate(bitsPerS float64) {
	if bitsPerS <= 0 {
		panic("sim: serializer rate must be positive")
	}
	s.bitsPerS = bitsPerS
}

// TestCoreMatchesSerializer walks the old serializer and a Core with a
// rate and a window side by side, at windows from 0 to practically
// unbounded, through admissions, unconditional bookings, rate changes,
// admission queries at, before and after the clock, and clock steps and
// jumps. Every completion instant, admit decision and AdmitAt answer
// must be the old one; the Serializer adapter, its rate set as SetRate
// set the old one's, must admit alike.
func TestCoreMatchesSerializer(t *testing.T) {
	windows := []int64{0, 1, 1000, 3 * 12304, 1 << 20, 1 << 40}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := NewVClock()
		clk.Set(rng.Int63n(1e9))
		rate := 1e9
		type pair struct {
			ref    *refSerializer
			core   Core
			ad     *Serializer
			window int64
		}
		pairs := make([]*pair, len(windows))
		for i, w := range windows {
			pairs[i] = &pair{ref: newRefSerializer(clk, rate, w), ad: NewSerializer(clk, rate, w), window: w}
		}
		const ops = 100_000
		for op := 0; op < ops; op++ {
			now := clk.Now()
			b := rng.Intn(9000)
			if rng.Intn(8) == 0 {
				b = rng.Intn(1 << 16)
			}
			switch k := rng.Intn(16); {
			case k < 5: // admit
				for i, p := range pairs {
					want, wantOK := p.ref.Admit(b)
					var got int64
					gotOK := p.core.Admits(now, p.window)
					if gotOK {
						got = p.core.Book(now, BytesNS(b, rate))
					}
					adAt, adOK := p.ad.Admit(b)
					if got != want || gotOK != wantOK || adAt != want || adOK != wantOK {
						t.Fatalf("seed %d op %d window %d: admit %d B at %d: core (%d, %v), adapter (%d, %v), reference (%d, %v)",
							seed, op, windows[i], b, now, got, gotOK, adAt, adOK, want, wantOK)
					}
				}
			case k < 8: // book
				for i, p := range pairs {
					want := p.ref.Book(b)
					if got := p.core.Book(now, BytesNS(b, rate)); got != want {
						t.Fatalf("seed %d op %d window %d: book %d B at %d: core %d, reference %d",
							seed, op, windows[i], b, now, got, want)
					}
					// The adapter has no Book: keep it on the same bookings.
					p.ad.core.Book(now, BytesNS(b, rate))
				}
			case k < 10: // admission queries
				at := []int64{now, now - rng.Int63n(1e6), now + rng.Int63n(1e6), math.MinInt64}[rng.Intn(4)]
				for i, p := range pairs {
					if got, want := p.core.Admits(now, p.window), p.ref.CanAdmit(); got != want {
						t.Fatalf("seed %d op %d window %d: admits at %d: core %v, reference %v", seed, op, windows[i], now, got, want)
					}
					if got, want := p.core.AdmitAt(at, p.window), p.ref.NextAdmitAt(at); got != want {
						t.Fatalf("seed %d op %d window %d: AdmitAt(%d): core %d, reference NextAdmitAt %d", seed, op, windows[i], at, got, want)
					}
				}
			case k < 11: // rate change
				rate = math.Pow(10, 6+5*rng.Float64())
				if rng.Intn(2) == 0 {
					rate = 1.66e9 / float64(1+rng.Intn(4)) // the bus arbiter's shares
				}
				for _, p := range pairs {
					p.ref.SetRate(rate)
					p.ad.bps = rate
				}
			case k < 15: // clock step
				clk.Advance(rng.Int63n(50_000))
			default: // clock jump
				clk.Advance(rng.Int63n(1e10))
			}
		}
	}
}

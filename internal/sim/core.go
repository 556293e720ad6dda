package sim

import "repro/internal/hostos"

// Core is a resource's busy-until instant: the work booked on it ahead of
// the bed's clock. Every such instant in the model is one — a thread, a
// NIC line, a bus share, a core's packet budget, a netem bottleneck — and
// each takes now from its caller. Bookings lapse as the bed's clock
// passes them, and only Book moves one, so every answer below stays exact
// across a stretch the event driver leaps (DESIGN.md §8).
//
// A thread (DESIGN.md §15): the driver visits an instant once and every
// thread does that instant's work in zero virtual time; what the work
// would have cost is booked here, and only a clock read made on that
// thread sees it — which is all Figs. 4-6 measure, so a run that reads no
// compartment clock is untouched.
//
// A paced resource (line, bus share, core budget) books bytes at its rate
// (BytesNS) and admits new work only while it is booked at most a window
// ahead: the device FIFO it stands for, a few frame times. A refusal is
// ring backpressure, the caller retries at AdmitAt.
type Core struct{ busyUntil int64 }

// At is the resource's own time at bed instant now: no earlier than the
// end of the work it has booked.
func (c *Core) At(now int64) int64 { return max(now, c.busyUntil) }

// Book charges ns of work, begun when the resource is next free, and
// returns the instant it completes; with no work it keeps the resource
// busy until now at least. It never refuses: work already done (a burst
// the core has processed) overshoots the window, and Admits stays false
// until the clock catches up, so the long-run rate still holds.
func (c *Core) Book(now, ns int64) int64 {
	c.busyUntil = c.At(now) + ns
	return c.busyUntil
}

// Admits reports whether the resource takes new work at now: it is booked
// at most window ns ahead.
func (c *Core) Admits(now, window int64) bool { return c.At(now)-now <= window }

// AdmitAt is the earliest instant, from now on, at which Admits holds:
// now when the window has room, else when the bookings drain back inside
// it.
func (c *Core) AdmitAt(now, window int64) int64 { return max(now, c.busyUntil-window) }

// BytesNS is how long n bytes occupy a resource of bps bits/s.
func BytesNS(n int, bps float64) int64 { return int64(float64(n*8) / bps * 1e9) }

// Serializer is a Core with its own clock, rate and window, kept only as
// the adapter bench/'s sim.serializer_admit_ns probe times: the model's
// resources hold a Core and take now from their caller.
type Serializer struct {
	clk    hostos.Clock
	bps    float64
	window int64
	core   Core
}

// NewSerializer paces a Core at bitsPerS with a window of maxAheadNS.
func NewSerializer(clk hostos.Clock, bitsPerS float64, maxAheadNS int64) *Serializer {
	return &Serializer{clk: clk, bps: bitsPerS, window: maxAheadNS}
}

// Admit books costBytes and returns the instant the transfer completes,
// or 0 and false when the Core is booked past its window.
func (s *Serializer) Admit(costBytes int) (doneAt int64, ok bool) {
	now := s.clk.Now()
	if !s.core.Admits(now, s.window) {
		return 0, false
	}
	return s.core.Book(now, BytesNS(costBytes, s.bps)), true
}

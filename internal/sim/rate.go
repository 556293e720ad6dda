package sim

import "repro/internal/hostos"

// Serializer models a transmission resource with a fixed bit rate (an
// Ethernet line, a PCI bus). Admitting n cost-bytes books n*8/rate of
// resource time; when the resource is booked further than maxAhead past
// the current clock, admission fails and the caller must retry later
// (ring backpressure, exactly how a full NIC queue behaves).
//
// The "how far ahead" window stands in for the device FIFO: a couple of
// frame times is realistic and keeps the model work-conserving.
type Serializer struct {
	clk      hostos.Clock
	bitsPerS float64
	maxAhead int64 // ns
	nextFree int64 // ns timestamp at which the resource is free
}

// NewSerializer creates a serializer at rate bits/s with the given
// booking window.
func NewSerializer(clk hostos.Clock, bitsPerS float64, maxAheadNS int64) *Serializer {
	if bitsPerS <= 0 {
		panic("sim: serializer rate must be positive")
	}
	return &Serializer{clk: clk, bitsPerS: bitsPerS, maxAhead: maxAheadNS}
}

// Admit books costBytes of resource time. It returns the absolute time
// at which the transfer completes and true, or 0 and false when the
// resource is over-booked (caller retries on a later poll).
func (s *Serializer) Admit(costBytes int) (doneAt int64, ok bool) {
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
func (s *Serializer) Book(costBytes int) (doneAt int64) {
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
func (s *Serializer) CanAdmit() bool {
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
func (s *Serializer) NextAdmitAt(now int64) int64 {
	at := s.nextFree - s.maxAhead
	if at < now {
		return now
	}
	return at
}

// SetRate changes the rate for future admissions (already-booked
// transfers keep their completion times). The bus arbiter uses it to
// redistribute bandwidth as ports become active and idle.
func (s *Serializer) SetRate(bitsPerS float64) {
	if bitsPerS <= 0 {
		panic("sim: serializer rate must be positive")
	}
	s.bitsPerS = bitsPerS
}

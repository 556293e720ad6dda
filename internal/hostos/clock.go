package hostos

import "time"

// Clock identifiers (FreeBSD numbering for the ones we implement).
const (
	// ClockMonotonic is CLOCK_MONOTONIC.
	ClockMonotonic = 4
	// ClockMonotonicRaw is the evaluation's CLOCK_MONOTONIC_RAW
	// (non-adjusted monotonic time).
	ClockMonotonicRaw = 11
)

// Clock provides monotonic time in nanoseconds since boot. A kernel boots
// on the clock it is handed: every bed the experiments build runs on one
// virtual clock (sim.VClock), its kernels included. The real clock is what
// the host-cost probes in bench/ time against.
type Clock interface {
	Now() int64
}

// RealClock reads the host's monotonic clock.
type RealClock struct {
	boot time.Time
}

// NewRealClock boots a monotonic clock at the current instant.
func NewRealClock() *RealClock { return &RealClock{boot: time.Now()} }

// Now returns nanoseconds since boot.
func (c *RealClock) Now() int64 { return int64(time.Since(c.boot)) }

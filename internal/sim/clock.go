package sim

// VClock is a manually advanced virtual clock. It satisfies
// hostos.Clock. A bed's one goroutine both advances and reads it.
type VClock struct {
	now int64
}

// NewVClock starts a virtual clock at zero.
func NewVClock() *VClock { return &VClock{} }

// Now returns the current virtual time in nanoseconds.
func (c *VClock) Now() int64 { return c.now }

// Advance moves the clock forward by d nanoseconds.
func (c *VClock) Advance(d int64) {
	if d < 0 {
		panic("sim: clock cannot go backwards")
	}
	c.now += d
}

// Set jumps the clock to t (must not move backwards).
func (c *VClock) Set(t int64) {
	if t < c.now {
		panic("sim: clock cannot go backwards")
	}
	c.now = t
}

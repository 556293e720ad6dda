package fstack

// Loop is the F-Stack main loop: after an initialization phase, a
// poll-mode iteration runs forever — "(i) process the ring buffers of
// the DPDK Ethernet driver; and (ii) execute a user-defined function
// where calls to F-Stack API functions can be made" (§III-B).
type Loop struct {
	Stk *Stack
	// OnLoop is the user-defined function, called at the end of every
	// iteration (the app and the stack share a compartment in Baseline
	// and Scenario 1). It calls the Stack's API directly.
	OnLoop func(now int64)

	iterations uint64
}

// RunOnce executes one iteration: drain RX rings, run protocol input and
// timers, flush TX, then the user callback.
func (l *Loop) RunOnce() {
	s := l.Stk
	s.PollOnce()
	if l.OnLoop != nil {
		l.OnLoop(s.now())
	}
	l.iterations++
}

// NextDeadline reports the earliest virtual instant at which this
// loop's next iteration could do anything: a connection timer firing,
// a frame becoming harvestable, a serializer freeing up. A value <=
// now means the loop has work right now; math.MaxInt64 means it is
// fully quiescent. Event-driven drivers aggregate this over every loop
// (and the applications they host) to leap the virtual clock over
// iterations that would provably be no-ops.
func (l *Loop) NextDeadline(now int64) int64 {
	return l.Stk.NextDeadline(now)
}

// Iterations reports completed loop iterations.
func (l *Loop) Iterations() uint64 { return l.iterations }

package core

import (
	"fmt"
	"slices"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// The scenario harness: what every experiment shares once its bed is
// built — one measured-run wrapper that places the workload's endpoints
// on the bed's sites and drives the event-driven clock, one
// build-then-run, one sweep over the host worker pool. What stays per
// scenario is what differs: config defaults, which endpoints go on which
// sites, the result struct and the table layout. DESIGN.md §14 has the
// argument; flows.go is the bulk-flow driver on top.

// bwTick is the virtual time one driver iteration covers (5 µs).
const bwTick = 5_000

// endpoint is the stepper contract every workload meets — iperf, churn
// and the app plane's clients and servers. Step advances it against the
// API of the site it is placed on. It has a sticky errno and a deadline
// hook: the next virtual instant it may act of its own accord
// (math.MaxInt64 = never; a value at or before `now` means it has work
// right now), which is what lets the event-driven driver leap. The hook
// must be complete: an endpoint whose next Step would do anything —
// timed or queued by its own previous Step — and that no stack or device
// deadline of the loop it is stepped in announces, must say so here
// (DESIGN.md §8).
type endpoint interface {
	Step(api fstack.API, now int64)
	NextDeadline(now int64) int64
	Err() hostos.Errno
}

// placed is one endpoint of a run, the name errors call it by and the
// site it runs on. The site is all the harness needs to know about the
// compartment layout.
type placed struct {
	label string
	site  testbed.Site
	endpoint
}

// placement is where a run's endpoints step.
type placement struct {
	eps []placed
	// hosted[i] indexes, in the bed's loops, the loop whose callback
	// steps eps[i]: the endpoint's deadline makes that loop due. -1 for a
	// driver-stepped endpoint, which runs at every visited instant and
	// needs only the instant to be visited.
	hosted []int
	// driven are the driver-stepped endpoints.
	driven []placed
}

// place sites every endpoint. The stepping-order rule: endpoints sharing
// a loop are stepped in placement order inside that loop's callback, and
// the endpoints of loop-less sites in placement order after all the
// loops. Frames leave a stack in the order its endpoints wrote, so
// placement order is wire order (DESIGN.md §14). A loop nothing is
// placed on hosts nothing.
func place(bed *Setup, what string, eps []placed) (placement, error) {
	loops := bed.Loops()
	pl := placement{eps: eps, hosted: make([]int, len(eps))}
	inLoop := make([][]placed, len(loops))
	for i, ep := range eps {
		at := slices.Index(loops, ep.site.Loop)
		pl.hosted[i] = at
		switch {
		case ep.site.Loop == nil:
			pl.driven = append(pl.driven, ep)
		case at < 0:
			// Its deadline would make no loop of this bed due: a late
			// frame or a hang instead of this error.
			return pl, fmt.Errorf("core: %s: endpoint %s is sited on a loop that is not one of the bed's", what, ep.label)
		default:
			inLoop[at] = append(inLoop[at], ep)
		}
	}
	for i, l := range loops {
		l.OnLoop = nil
		if here := inLoop[i]; len(here) > 0 {
			l.OnLoop = func(now int64) {
				for _, ep := range here {
					ep.Step(ep.site.API, now)
				}
			}
		}
	}
	return pl, nil
}

// phase is one leg of a measured run: stepped until done reports true,
// an endpoint latches an error, or budgetNS of virtual time has passed.
type phase struct {
	// name tells the legs of a multi-phase run apart in errors.
	name     string
	budgetNS int64
	// start, when set, runs as the leg begins.
	start func(now int64)
	done  func() bool
}

// measure is the one measured run: it asserts the virtual clock, places
// the endpoints, drives the bed through each phase, turns a budget
// overrun or the first latched endpoint errno into an error naming the
// scenario, phase and endpoint, and closes the bed's captures.
//
// An end-of-run audit (conservation checks over the bed) and a host
// profile of the driver loop belong here: this is the only place every
// scenario's run passes through.
func measure(bed *Setup, what string, eps []placed, phases ...phase) error {
	clk, ok := bed.Clk.(*sim.VClock)
	if !ok {
		return fmt.Errorf("core: %s runs need the virtual clock", what)
	}
	pl, err := place(bed, what, eps)
	if err != nil {
		return err
	}
	failed := func() *placed {
		for i := range eps {
			if eps[i].Err() != hostos.OK {
				return &eps[i]
			}
		}
		return nil
	}
	for _, ph := range phases {
		leg := what
		if ph.name != "" {
			leg += " " + ph.name
		}
		if ph.start != nil {
			ph.start(clk.Now())
		}
		done := func() bool { return failed() != nil || ph.done() }
		if err := runVirtualUntil(clk, bed, leg, pl, done, ph.budgetNS); err != nil {
			return err
		}
		if ep := failed(); ep != nil {
			return fmt.Errorf("core: %s: %s failed: %v", leg, ep.label, ep.Err())
		}
	}
	if err := bed.CloseObs(); err != nil {
		return fmt.Errorf("core: %s capture: %w", what, err)
	}
	return nil
}

// leapEnabled gates the event-driven driver: when true (the default),
// runVirtualUntil leaps over tick rounds in which provably nothing is
// due and, at the instants it does visit, steps only the loops that
// are. False is the oracle the differential tests compare against:
// every loop stepped at every tick.
var leapEnabled = true

// visitHook, when non-nil, observes every iteration the driver runs,
// after its loops and driven endpoints: the instant and whether the bed
// reported due work there. Test-only.
var visitHook func(now int64, active bool)

// runVirtualUntil steps the bed's due loops (and the driver-stepped
// endpoints and fault plane) in lockstep virtual time until done() or
// budgetNS has passed; what names the run in the overrun error.
//
// The driver is event-driven, and its unit of work is the due loop.
// Each iteration steps the loops that are due at the current instant
// and every driven endpoint, then asks each loop (Bed.LoopDeadlines:
// connection timers, RX FIFOs, serializers, netem delay lines) and the
// endpoints (workload duration/interval/pacing ends, queued
// next-Step work — charged to the loop that hosts them) for the
// earliest future instant anything could happen. That one computation
// yields both the next instant to visit — when it lies beyond the next
// 5 µs tick, the clock leaps directly to the grid point containing it,
// the same instant the tick-stepped loop would first have noticed the
// event at — and the set of loops to step there: those whose own
// deadline has come. Every skipped grid point and every skipped loop is
// a provable no-op (DESIGN.md §8), so observable behavior is
// bit-identical while wall-clock cost scales with events per component
// rather than with virtual duration times loops.
func runVirtualUntil(clk *sim.VClock, bed *Setup, what string, pl placement, done func() bool, budgetNS int64) error {
	start := clk.Now()
	loops := bed.Loops()
	// The first instant steps every loop: set-up steps announce nothing.
	due := make([]bool, len(loops))
	for i := range due {
		due[i] = true
	}
	dueAt := make([]int64, len(loops))
	for clk.Now()-start < budgetNS {
		if done() {
			return nil
		}
		for i, l := range loops {
			if due[i] {
				l.RunOnce()
			}
		}
		now := clk.Now()
		for _, ep := range pl.driven {
			ep.Step(ep.site.API, now)
		}
		bed.FaultStep(now)
		// Metrics sampling rides the same iteration grid; with
		// observability off this is a nil check. Bed.LoopDeadlines folds
		// the sampler's next instant in, so leaping never skips a sample.
		bed.ObsTick(now)
		step := int64(bwTick)
		if leapEnabled || visitHook != nil {
			next := bed.LoopDeadlines(now, dueAt)
			for i, ep := range pl.eps {
				at := ep.NextDeadline(now)
				if l := pl.hosted[i]; l >= 0 && at < dueAt[l] {
					dueAt[l] = at
				}
				if at < next {
					next = at
				}
			}
			if visitHook != nil {
				visitHook(now, next <= now)
			}
			if next > now+bwTick {
				// Land exactly on the tick-grid point containing the
				// deadline (never past the run's budget), so the event
				// is handled at the same instant the tick loop would
				// have handled it.
				if end := start + budgetNS; next > end {
					next = end
				}
				if k := (next - now + bwTick - 1) / bwTick; k > 1 && leapEnabled {
					step = k * bwTick
				}
			}
			if leapEnabled {
				for i, at := range dueAt {
					due[i] = at <= now+step
				}
			}
		}
		clk.Advance(step)
	}
	// A run can complete into total quiescence: the final step finishes
	// the workload, every deadline goes to infinity, and the leap lands
	// on the budget end — re-check before calling that a timeout.
	if done() {
		return nil
	}
	return fmt.Errorf("core: %s did not finish within %.0f ms virtual", what, float64(budgetNS)/1e6)
}

// allDone is the usual end of a phase: every worker has finished.
func allDone[W interface{ Done() bool }](workers []W) func() bool {
	return func() bool {
		for _, w := range workers {
			if !w.Done() {
				return false
			}
		}
		return true
	}
}

// wanBudget is the virtual-time budget of a run whose loss recovery and
// final drain ride WAN round trips (through a deep queue): generous
// headroom beyond the traffic time, growing with the path's one-way
// delay.
func wanBudget(durationNS, delayNS int64) int64 {
	return durationNS + 8_000e6 + 200*2*delayNS
}

// fresh is RunScenarioN: build the configuration's bed on a new
// virtual clock, then run it once.
func fresh[C, S, R any](build func(hostos.Clock, C) (S, error), cfg C, run func(S) (R, error)) (R, error) {
	s, err := build(sim.NewVClock(), cfg)
	if err != nil {
		var zero R
		return zero, err
	}
	return run(s)
}

// sweep runs every cell on the host worker pool (Parallelism) and
// returns the results in cell order; a failing cell's error carries its
// label.
func sweep[C, R any](cells []C, run func(C) (R, error), label func(C) string) ([]R, error) {
	return RunCells(Parallelism(), len(cells), func(i int) (R, error) {
		r, err := run(cells[i])
		if err != nil {
			return r, fmt.Errorf("%s: %w", label(cells[i]), err)
		}
		return r, nil
	})
}

// modeName is a report's Mode column: the Baseline process layout or
// the capability-mode cVM.
func modeName(capMode bool) string {
	if capMode {
		return "cheri"
	}
	return "baseline"
}

// recoveryName is a report's Recovery column: the paper's stack or the
// modern tuning (SACK + window scaling).
func recoveryName(modern bool) string {
	if modern {
		return "SACK+WS"
	}
	return "go-back-N"
}

package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// The event-driven driver's correctness contract: leaping the clock
// over quiescent tick rounds, and stepping only the due loops at the
// instants it does visit, must be invisible. This file pins it against
// the tick oracle (leapEnabled = false: every loop stepped at every
// 5 µs tick) on one cell per kind of bed the repository builds — the
// seeded lossy WAN of Scenario 5, which exercises every deadline source
// at once (netem delay lines, the bottleneck serializer,
// RTO/delack/persist timers, iperf's duration end) and Scenario 7's long
// clean one, where the link holds a window of frames for one end while the
// other has nothing to do; Table II's
// bus-limited two-port, API-gate and device-gate layouts, and both gate
// layouts composed on a sharded stack; the sharded bulk beds of
// Scenarios 4 and 6 (the latter saturates its TX rings, so the burst
// calls' inline device steps decide where a write stalls); the sharded
// connection and request planes; and the fault storms, where a
// restarted stack, its re-listening server and its reconnecting clients
// all queue work for a next poll that nothing else announces.

// driverCell is one configuration the two drivers are compared on.
type driverCell struct {
	name string
	// run builds the cell's bed on clk, hands it to tap before any
	// traffic, runs it and returns the formatted report.
	run func(clk hostos.Clock, tap func(*Setup)) (string, error)
	// maxPollsPerFrame, when set, caps the event driver's polls per
	// traced frame: the cell's measured ratio plus ~10 %. These are the
	// beds on which a deadline that names its owner — the queue a frame
	// was steered to, the link end it is released toward — saves the
	// most (with the port-wide and link-wide answers the capped cells ran
	// 1.01, 1.07, 0.68, 0.71 and 0.51), so an answer widening back to the
	// port or the link fails here rather than in a benchmark.
	maxPollsPerFrame float64
}

// bandwidthCell is a Table II cell cut to 150 ms of traffic: the flow
// list BandwidthPair builds for the layout (an environment's flow sited
// in its loop, an app cVM's behind its gated API view), handed to the
// same bulk-flow driver.
func bandwidthCell(name string, build func(hostos.Clock) (*Setup, error), upload bool) driverCell {
	return driverCell{name: name, run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
		s, err := build(clk)
		if err != nil {
			return "", err
		}
		tap(s)
		reps, err := runFlows(s, "bandwidth", tableFlows(s, upload), 150e6, bwDeadline)
		return fmt.Sprint(reps), err
	}}
}

var scenario4ServerCell = driverCell{name: "scenario 4 server, 4 shards", run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
	s, err := NewScenario4(clk, Scenario4Config{Shards: 4})
	if err != nil {
		return "", err
	}
	tap(s)
	r, err := Scenario4Bandwidth(s, LocalIsServer, 4, 60e6)
	return FormatScenario4([]Scenario4Result{r}), err
}}

func scenario9Cell(proto string) driverCell {
	cfg := Scenario9Config{Proto: proto, Shards: 2, CapMode: true, Rate: 4000, Conns: 8, DurationNS: 50e6}
	return driverCell{name: "scenario 9 " + proto, run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
		s, err := NewScenario9(clk, cfg)
		if err != nil {
			return "", err
		}
		tap(s)
		r, err := Scenario9Run(s, cfg)
		return FormatScenario9(proto, []Scenario9Result{r}), err
	}}
}

func scenario10Cell(shards int, capMode bool) driverCell {
	cfg := Scenario10Config{Shards: shards, CapMode: capMode, Faults: 2, MTBFNS: 40e6, Conns: 2, DurationNS: 240e6}
	name := fmt.Sprintf("scenario 10 %s storm, %d shards", modeName(capMode), shards)
	return driverCell{name: name, run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
		s, err := NewScenario10(clk, cfg)
		if err != nil {
			return "", err
		}
		tap(s)
		r, err := Scenario10Run(s, cfg)
		return FormatScenario10([]Scenario10Result{r}), err
	}}
}

// composedCell is a gate layout composed on two CPU-budgeted shards
// (compose_test.go's bed): the burst gates, or the API gates, sit
// between the driver's due-set stepping and each shard's queue.
func composedCell(layout string) driverCell {
	return driverCell{name: layout + " x 2 shards", run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
		s, err := newComposedBed(clk, 2, layout, testbed.ObsSpec{})
		if err != nil {
			return "", err
		}
		tap(s)
		reps, err := runFlows(s, "compose", shardedFlows(s, composeFlows, s4BasePort, true), 60e6, bwDeadline)
		return fmt.Sprint(reps), err
	}}
}

// ffWriteCell is one bed of Figs. 4-6 on a short sample count. Its report
// is every raw sample beside the box rows: hold time booked per poll
// instead of per frame, a refused call that left a booking behind, or a
// booked-ahead compartment deferring work no NextDeadline announces,
// moves a sample between the drivers long before it moves a quartile.
func ffWriteCell(name string, build func(hostos.Clock) (*Setup, error), hammer bool) driverCell {
	return driverCell{name: name, run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
		s, err := build(clk)
		if err != nil {
			return "", err
		}
		tap(s)
		sets, err := ffWriteRun(s, name, FFWriteConfig{Iterations: 400, IntervalNS: 20_000, Payload: 1448}, s.AppSites(), []string{"probe 0", "probe 1"}, hammer)
		return FormatFFWrite(name, sets) + fmt.Sprint(sets), err
	}}
}

var driverCells = []driverCell{
	{name: "scenario 5 lossy WAN", maxPollsPerFrame: 0.585, run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
		s, err := NewScenario5(clk, Scenario5Config{Modern: true, Link: s5TestLossyLink})
		if err != nil {
			return "", err
		}
		tap(s.Bed)
		r, err := Scenario5Bandwidth(s, 300e6)
		return FormatScenario5("driver equivalence", []Scenario5Result{r}), err
	}},
	{name: "scenario 7 cubic, 100 ms RTT", maxPollsPerFrame: 0.635, run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
		s, err := NewScenario7(clk, Scenario7Config{Congestion: fstack.CCCubic})
		if err != nil {
			return "", err
		}
		tap(s.Bed)
		r, err := Scenario7Bandwidth(s, 600e6)
		return FormatScenario7([]Scenario7Result{r}), err
	}},
	bandwidthCell("table II scenario 1 server", func(clk hostos.Clock) (*Setup, error) { return NewScenario1(clk) }, false),
	bandwidthCell("table II scenario 2 contended client", func(clk hostos.Clock) (*Setup, error) { return NewScenario2(clk, 2) }, true),
	bandwidthCell("scenario 3 client", func(clk hostos.Clock) (*Setup, error) { return NewScenario3(clk) }, true),
	scenario4ServerCell,
	{name: "scenario 6 upload, 2 shards", run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
		s, err := NewScenario6(clk, Scenario6Config{Shards: 2, Modern: true})
		if err != nil {
			return "", err
		}
		tap(s.Bed)
		// 300 ms: the windows need that long to grow into the TX rings.
		r, err := Scenario6Bandwidth(s, 4, 300e6)
		return FormatScenario6([]Scenario6Result{r}), err
	}},
	{name: "scenario 8 churn", maxPollsPerFrame: 0.335, run: func(clk hostos.Clock, tap func(*Setup)) (string, error) {
		cfg := Scenario8Config{Shards: 4, CapMode: true, Conns: 400, Rate: 20000, DurationNS: 20e6}
		s, err := NewScenario8(clk, cfg)
		if err != nil {
			return "", err
		}
		tap(s)
		r, err := Scenario8Churn(s, cfg)
		return FormatScenario8([]Scenario8Result{r}), err
	}},
	withPollCap(scenario9Cell("http"), 0.61),
	// This cell's queries leave in pairs, one per shard, so both shards
	// have a frame at almost every release: the cap has little to catch.
	withPollCap(scenario9Cell("dns"), 0.555),
	scenario10Cell(1, true),
	scenario10Cell(1, false),
	scenario10Cell(3, true),
	scenario10Cell(3, false),
	composedCell(layoutDevGated),
	composedCell(layoutAPIGated),
	ffWriteCell("fig 4 scenario 1", func(clk hostos.Clock) (*Setup, error) { return NewScenario1(clk) }, false),
	ffWriteCell("fig 5 scenario 2 uncontended", func(clk hostos.Clock) (*Setup, error) { return NewScenario2(clk, 1) }, false),
	ffWriteCell("fig 6 scenario 2 contended", func(clk hostos.Clock) (*Setup, error) { return NewScenario2(clk, 2) }, true),
}

func withPollCap(c driverCell, maxPollsPerFrame float64) driverCell {
	c.maxPollsPerFrame = maxPollsPerFrame
	return c
}

// driverRecording is one instrumented run.
type driverRecording struct {
	visited []int64    // grid points the driver iterated at, in order
	active  []int64    // those at which the bed reported work due now
	frames  [][]string // every port's and every stack's trace (frameTrace.traces)
	total   int        // frames the stacks moved (frameTrace.frames)
	polls   []uint64   // Loop.Iterations per loop, in Bed.Loops order
	extra   int        // most goroutines alive at a visited instant beyond those before the run
	report  string
}

// record runs the cell under the event driver (leap) or the tick
// oracle.
func (c driverCell) record(t *testing.T, leap bool) driverRecording {
	t.Helper()
	var rec driverRecording
	oldLeap, oldHook := leapEnabled, visitHook
	leapEnabled = leap
	base := runtime.NumGoroutine()
	var tr *frameTrace
	visitHook = func(now int64, active bool) {
		tr.visit(now)
		rec.extra = max(rec.extra, runtime.NumGoroutine()-base)
		rec.visited = append(rec.visited, now)
		if active {
			rec.active = append(rec.active, now)
		}
	}
	defer func() { leapEnabled, visitHook = oldLeap, oldHook }()
	var bed *Setup
	var err error
	rec.report, err = c.run(sim.NewVClock(), func(s *Setup) { bed, tr = s, traceFrames(s) })
	if err != nil {
		t.Fatalf("%s (leap=%v): %v", c.name, leap, err)
	}
	rec.frames, rec.total = tr.traces, tr.frames()
	for _, l := range bed.Loops() {
		rec.polls = append(rec.polls, l.Iterations())
	}
	return rec
}

// sameHistory requires two recordings to agree on every frame every
// port took in — same bytes, same virtual instant, same per-port order —
// on the instants at which every stack sent and took in frames, and on
// the formatted report. It returns the number of frames the stacks
// moved.
func sameHistory(t *testing.T, aName string, a driverRecording, bName string, b driverRecording) int {
	t.Helper()
	if a.report != b.report {
		t.Errorf("reports differ:\n-- %s --\n%s\n-- %s --\n%s", aName, a.report, bName, b.report)
	}
	if len(a.frames) != len(b.frames) {
		t.Fatalf("trace counts differ: %s %d, %s %d", aName, len(a.frames), bName, len(b.frames))
	}
	for k := range a.frames {
		af, bf := a.frames[k], b.frames[k]
		for i := 0; i < len(af) && i < len(bf); i++ {
			if af[i] != bf[i] {
				t.Fatalf("trace %d entry %d differs:\n  %s: %s\n  %s: %s", k, i, aName, af[i], bName, bf[i])
			}
		}
		if len(af) != len(bf) {
			t.Errorf("trace %d lengths differ: %s %d, %s %d", k, aName, len(af), bName, len(bf))
		}
	}
	if a.total != b.total {
		t.Errorf("the stacks moved %d frames under the %s, %d under the %s", a.total, aName, b.total, bName)
	}
	if a.total == 0 {
		t.Fatal("no frames traced; the workload is broken")
	}
	return a.total
}

// TestEventDriverMatchesTickOracle asserts the tentpole invariant on
// every cell: the event driver — leaping, and stepping only due loops —
// produces the oracle's exact frame history and report, visits only
// grid points the oracle visited, finds work due now at exactly the
// instants the oracle does, and saves polls.
func TestEventDriverMatchesTickOracle(t *testing.T) {
	skipUnderRace(t)
	for _, c := range driverCells {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			tick := c.record(t, false)
			event := c.record(t, true)
			frames := sameHistory(t, "tick oracle", tick, "event driver", event)

			onGrid := make(map[int64]bool, len(tick.visited))
			for _, at := range tick.visited {
				onGrid[at] = true
			}
			for _, at := range event.visited {
				if !onGrid[at] {
					t.Fatalf("event driver visited %d ns, which the tick oracle never reached", at)
				}
			}
			if len(tick.active) == 0 {
				t.Fatal("tick oracle recorded no active grid points; the workload is broken")
			}
			if len(tick.active) != len(event.active) {
				t.Errorf("active grid point counts differ: tick %d, event %d", len(tick.active), len(event.active))
			}
			for i := 0; i < len(tick.active) && i < len(event.active); i++ {
				if tick.active[i] != event.active[i] {
					t.Fatalf("active grid point %d differs: tick %d ns, event %d ns", i, tick.active[i], event.active[i])
				}
			}
			var tickPolls, eventPolls uint64
			for i := range tick.polls {
				tickPolls += tick.polls[i]
				eventPolls += event.polls[i]
			}
			if eventPolls >= tickPolls {
				t.Errorf("event driver ran %d polls, tick oracle %d: nothing was saved", eventPolls, tickPolls)
			}
			perFrame := float64(eventPolls) / float64(frames)
			if c.maxPollsPerFrame > 0 && perFrame > c.maxPollsPerFrame {
				t.Errorf("event driver ran %.3f polls per traced frame (%d / %d), ceiling %.3f", perFrame, eventPolls, frames, c.maxPollsPerFrame)
			}
			t.Logf("tick oracle %d instants / %d polls, event driver %d instants / %d polls (%.1f%% of polls skipped, %.3f per frame)",
				len(tick.visited), tickPolls, len(event.visited), eventPolls, 100*(1-float64(eventPolls)/float64(tickPolls)), perFrame)
		})
	}
}

// TestLeapLandsOnTickGrid pins the grid-alignment arithmetic in
// isolation: deadlines that fall between grid points must be handled
// at the first grid point past them, exactly where the tick loop
// notices them.
func TestLeapLandsOnTickGrid(t *testing.T) {
	clk := sim.NewVClock()
	clk.Advance(3 * bwTick)
	start := clk.Now()
	// A deadline 12.3 µs past now sits inside the grid cell ending at
	// +15 µs; the tick loop first sees it there.
	next := start + 12_300
	k := (next - start + bwTick - 1) / bwTick
	if got, want := start+k*bwTick, start+int64(3*bwTick); got != want {
		t.Fatalf("leap target %d, want %d", got, want)
	}
	// A deadline exactly on the grid is its own target.
	next = start + 2*bwTick
	k = (next - start + bwTick - 1) / bwTick
	if got, want := start+k*bwTick, next; got != want {
		t.Fatalf("on-grid leap target %d, want %d", got, want)
	}
}

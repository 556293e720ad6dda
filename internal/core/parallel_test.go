package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/testbed"
)

// This file pins the host-parallelism contract: any -parallel value
// must produce byte-identical reports. Cell-level (RunCells) and
// shard-level (testbed.ShardStepper) parallelism are pinned
// separately, the latter down to the full per-shard frame trace
// against the tick-stepped sequential reference.

// withParallelism runs fn with the package parallelism knob pinned to
// n, restoring the default afterward.
func withParallelism(n int, fn func()) {
	SetParallelism(n)
	defer SetParallelism(0)
	fn()
}

func TestRunCellsMatchesSequentialOrder(t *testing.T) {
	const n = 40
	run := func(i int) (int, error) { return i * i, nil }
	seq, err := RunCells(1, n, run)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCells(8, n, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != n || len(par) != n {
		t.Fatalf("lengths: seq %d, par %d, want %d", len(seq), len(par), n)
	}
	for i := range seq {
		if seq[i] != par[i] || seq[i] != i*i {
			t.Fatalf("cell %d: seq %d, par %d, want %d", i, seq[i], par[i], i*i)
		}
	}
}

func TestRunCellsReturnsLowestIndexError(t *testing.T) {
	run := func(i int) (int, error) {
		if i == 7 || i == 23 {
			return 0, fmt.Errorf("cell %d exploded", i)
		}
		return i, nil
	}
	// Parallel runs execute every cell; the reported error must be the
	// lowest-index failure regardless of completion order, matching
	// what a sequential sweep reports first.
	for trial := 0; trial < 8; trial++ {
		out, err := RunCells(8, 40, run)
		if err == nil {
			t.Fatal("want error")
		}
		if !strings.Contains(err.Error(), "cell 7 exploded") {
			t.Fatalf("want lowest-index error, got %v", err)
		}
		if out != nil {
			t.Fatalf("want nil results on error, got %v", out)
		}
	}
	if _, err := RunCells(1, 40, run); err == nil || !strings.Contains(err.Error(), "cell 7 exploded") {
		t.Fatalf("sequential error mismatch: %v", err)
	}
}

// TestParallelSweepUnderRace drives both parallelism levels with real
// scenario work so `go test -race` patrols the worker pool and the
// parallel shard stepper. It deliberately does NOT skip under the race
// detector — that coverage is its whole point — and keeps the
// simulated durations small to stay fast there.
func TestParallelSweepUnderRace(t *testing.T) {
	withParallelism(4, func() {
		// Cell-level: four Scenario 5 cells (cap × modern at one loss
		// point) on four workers, each building and driving its own bed.
		results, err := RunScenario5LossSweep([]float64{0.005}, 5e6, 50e6, "", 50e6)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 4 {
			t.Fatalf("want 4 sweep cells, got %d", len(results))
		}
		// Shard-level: a four-shard bed stepped by four workers between
		// virtual instants (the fork/join schedule under test).
		r, err := RunScenario4(Scenario4Config{Shards: 4}, LocalIsServer, 4, 50e6)
		if err != nil {
			t.Fatal(err)
		}
		if r.Mbps <= 0 {
			t.Fatalf("sharded run moved no data: %+v", r)
		}
		// The same schedule over sparse due sets: a paced request plane
		// leaves most instants with one shard due, or none, so workers
		// pass over loops while the driver rewrites the set between
		// instants.
		q, err := RunScenario9(Scenario9Config{Proto: "http", Shards: 4, Rate: 20000, Conns: 16, DurationNS: 20e6})
		if err != nil {
			t.Fatal(err)
		}
		if q.Completed == 0 {
			t.Fatalf("sharded request run completed nothing: %+v", q)
		}
	})
}

// TestParallelReportsByteIdentical is the determinism acceptance: the
// formatted sweep report at -parallel 4 equals the -parallel 1 report
// byte for byte, across two impairment seeds.
func TestParallelReportsByteIdentical(t *testing.T) {
	skipUnderRace(t)
	for _, seed := range []int64{1, 7} {
		link := s5TestLossyLink
		link.Seed = seed
		cells := []Scenario5Config{
			{Link: link},
			{Modern: true, Link: link},
			{CapMode: true, Link: link},
			{CapMode: true, Modern: true, Link: link},
		}
		report := func(par int) string {
			var out string
			withParallelism(par, func() {
				results, err := RunCells(Parallelism(), len(cells), func(i int) (Scenario5Result, error) {
					return RunScenario5(cells[i], 200e6)
				})
				if err != nil {
					t.Fatal(err)
				}
				out = FormatScenario5(fmt.Sprintf("seed %d", seed), results)
			})
			return out
		}
		seq := report(1)
		par := report(4)
		if seq != par {
			t.Errorf("seed %d: reports differ\n-- parallel 1 --\n%s\n-- parallel 4 --\n%s", seed, seq, par)
		}
	}
}

// recordScenario4 runs one fixed four-shard Scenario 4 configuration
// and records every shard's full frame trace (direction, instant,
// length, content hash per frame) plus the formatted result. leap
// selects the event-driven or tick-stepped reference driver; par the
// host worker count.
func recordScenario4(t *testing.T, leap bool, par int) (traces [][]string, result string) {
	t.Helper()
	oldLeap := leapEnabled
	leapEnabled = leap
	defer func() { leapEnabled = oldLeap }()
	withParallelism(par, func() {
		clk := sim.NewVClock()
		s, err := NewScenario4(clk, Scenario4Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		taps := make([]*traceTap, s.Sharded.NumShards())
		for i := range taps {
			taps[i] = &traceTap{}
			s.Sharded.Shard(i).SetTap(taps[i])
		}
		r, err := Scenario4Bandwidth(s, LocalIsServer, 4, 60e6)
		if err != nil {
			t.Fatal(err)
		}
		for _, tap := range taps {
			traces = append(traces, tap.events)
		}
		result = FormatScenario4([]Scenario4Result{r})
	})
	return traces, result
}

// TestTickVsParallelShardTraceIdentical is the shard-parallelism
// tentpole invariant, in the style of the PR-5 leap test: the
// tick-stepped fully sequential reference and the leaping four-worker
// parallel run must agree on every frame every shard ever saw — same
// bytes, same virtual instant, same per-shard order — and on the
// formatted result.
func TestTickVsParallelShardTraceIdentical(t *testing.T) {
	skipUnderRace(t)
	// The bed must actually be eligible for parallel stepping, or this
	// test would silently compare sequential against sequential.
	probe, err := NewScenario4(sim.NewVClock(), Scenario4Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ps := testbed.NewShardStepper(probe, 4)
	if ps == nil {
		t.Fatal("scenario 4 bed is not eligible for parallel shard stepping")
	}
	ps.Close()

	tick, tickResult := recordScenario4(t, false, 1)
	par, parResult := recordScenario4(t, true, 4)

	if tickResult != parResult {
		t.Errorf("results differ:\n-- tick sequential --\n%s\n-- leap parallel --\n%s", tickResult, parResult)
	}
	if len(tick) != len(par) {
		t.Fatalf("shard counts differ: %d vs %d", len(tick), len(par))
	}
	total := 0
	for sh := range tick {
		if len(tick[sh]) != len(par[sh]) {
			t.Errorf("shard %d frame counts differ: tick %d, parallel %d", sh, len(tick[sh]), len(par[sh]))
		}
		for i := 0; i < len(tick[sh]) && i < len(par[sh]); i++ {
			if tick[sh][i] != par[sh][i] {
				t.Fatalf("shard %d frame %d differs:\n  tick:     %s\n  parallel: %s", sh, i, tick[sh][i], par[sh][i])
			}
		}
		total += len(tick[sh])
	}
	if total == 0 {
		t.Fatal("no frames traced; the workload is broken")
	}
	t.Logf("compared %d frames across %d shards", total, len(tick))
}

// TestShardStepperOnlyWhenParallelismIsExplicit: the ledger has
// shard-level workers losing to sequential stepping, so a run nobody
// configured must not engage them — RunCells keeps its GOMAXPROCS
// default — while an explicit value still does, and the report is the
// same bytes either way. The stepper's workers are goroutines that live
// for the run, so the driver's per-instant hook can count them.
func TestShardStepperOnlyWhenParallelismIsExplicit(t *testing.T) {
	skipUnderRace(t)
	t.Setenv("CHERINET_PARALLEL", "")
	run := func() (report string, extra int) {
		base := runtime.NumGoroutine()
		visitHook = func(int64, bool) { extra = max(extra, runtime.NumGoroutine()-base) }
		defer func() { visitHook = nil }()
		s, err := NewScenario4(sim.NewVClock(), Scenario4Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Scenario4Bandwidth(s, LocalIsServer, 4, 20e6)
		if err != nil {
			t.Fatal(err)
		}
		return FormatScenario4([]Scenario4Result{r}), extra
	}
	SetParallelism(0)
	if Parallelism() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default cell parallelism %d, want GOMAXPROCS", Parallelism())
	}
	byDefault, workers := run()
	if workers != 0 {
		t.Errorf("default parallelism: %d extra goroutines during the run, want no shard stepper", workers)
	}
	var explicit string
	withParallelism(4, func() { explicit, workers = run() })
	if workers == 0 {
		t.Error("-parallel 4: no extra goroutines during the run, want the shard stepper's workers")
	}
	if byDefault != explicit {
		t.Errorf("reports differ:\n-- default --\n%s\n-- parallel 4 --\n%s", byDefault, explicit)
	}
}

package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// This file pins the host-parallelism contract: any -parallel value
// must produce byte-identical reports, and the value reaches RunCells
// only — a bed runs on the goroutine that drives it.

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

// TestParallelSweepUnderRace drives the worker pool with real scenario
// work so `go test -race` patrols it and everything concurrent cells
// could share. It deliberately does NOT skip under the race detector —
// that coverage is its whole point — and keeps the simulated durations
// small to stay fast there.
func TestParallelSweepUnderRace(t *testing.T) {
	withParallelism(4, func() {
		// Four Scenario 5 cells (cap × modern at one loss point) on four
		// workers, each building and driving its own bed.
		results, err := RunScenario5LossSweep([]float64{0.005}, 5e6, 50e6, "", 50e6)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 4 {
			t.Fatalf("want 4 sweep cells, got %d", len(results))
		}
		// Four sharded beds side by side: two saturating bulk cells and
		// two paced request planes, whose sparse due sets leave most
		// instants with one shard due, or none.
		moved, err := RunCells(Parallelism(), 4, func(i int) (bool, error) {
			if i%2 == 0 {
				r, err := RunScenario4(Scenario4Config{Shards: 4}, LocalIsServer, 4, 50e6)
				return r.Mbps > 0, err
			}
			q, err := RunScenario9(Scenario9Config{Proto: "http", Shards: 4, Rate: 20000, Conns: 16, DurationNS: 20e6})
			return q.Completed > 0, err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range moved {
			if !ok {
				t.Errorf("sharded cell %d moved no data", i)
			}
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
	// Figs. 4-6 are two cells each.
	for name, cells := range map[string][]ffCell{"fig4": fig4Cells, "fig5": fig5Cells, "fig6": fig6Cells} {
		report := func(par int) (out string) {
			withParallelism(par, func() {
				sets, err := measureFigure(smallCfg(), cells...)
				if err != nil {
					t.Fatal(err)
				}
				out = FormatFFWrite(name, sets)
			})
			return out
		}
		if seq, par := report(1), report(4); seq != par {
			t.Errorf("%s: reports differ\n-- parallel 1 --\n%s\n-- parallel 4 --\n%s", name, seq, par)
		}
	}
}

// TestParallelismStaysOutsideTheBed: the parallelism setting is a cell
// count and nothing else. A single sharded cell at SetParallelism(4)
// never has more goroutines alive inside the driver than before it
// started, and its frame history, report and per-loop poll counts are
// the SetParallelism(1) run's.
func TestParallelismStaysOutsideTheBed(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []driverCell{scenario4ServerCell, scenario9Cell("http")} {
		var seq, par driverRecording
		withParallelism(1, func() { seq = c.record(t, true) })
		withParallelism(4, func() { par = c.record(t, true) })
		if par.extra > 0 {
			t.Errorf("%s: %d goroutines started inside the driver at parallelism 4, want none", c.name, par.extra)
		}
		sameHistory(t, "parallelism 1", seq, "parallelism 4", par)
		if !slices.Equal(seq.polls, par.polls) {
			t.Errorf("%s: per-loop polls %v at parallelism 1, %v at 4", c.name, seq.polls, par.polls)
		}
	}
}

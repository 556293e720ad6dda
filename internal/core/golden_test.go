package core

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/fstack"
	"repro/internal/netem"
)

// The golden files under testdata were captured from the pre-testbed
// constructors (the hand-wired NewBaselineEnv*/NewCVMEnv*/NewPeer*
// family) immediately before the migration to declarative specs. The
// spec-built topologies must reproduce every summary byte-identically:
// the redesign moves wiring, not behavior.

// skipUnderRace skips a golden run when the race detector is active:
// the runs are single-goroutine lockstep and their slowdown under the
// detector pushes the package past the test timeout.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("byte-exact golden run; nothing for the race detector, too slow under it")
	}
}

// update rewrites the golden files from the current behaviour instead
// of comparing against them: go test ./internal/core -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// assertGolden compares got against testdata/<name>, printing a
// line-anchored diff on mismatch.
func assertGolden(t *testing.T, name, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile("testdata/"+name, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d differs:\n  got:  %q\n  want: %q", name, i+1, g, w)
		}
	}
	if !t.Failed() {
		t.Fatalf("%s differs only in length: got %d bytes, want %d", name, len(got), len(want))
	}
}

// TestGoldenTable2 pins Table II — Baseline dual/single, Scenario 1,
// Scenario 2 uncontended and contended — against the pre-migration
// capture.
func TestGoldenTable2(t *testing.T) {
	skipUnderRace(t)
	blocks, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "table2.golden", FormatTable2(blocks))
}

// runEntry runs the registry entry name with args as `cherinet name args`
// does and returns what it printed.
func runEntry(t *testing.T, name string, args ...string) string {
	t.Helper()
	e, ok := LookupScenario(name)
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	run := e.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestGoldenScenario3 pins the device-gate layout's bandwidth summary as
// `cherinet scenario3` prints it.
func TestGoldenScenario3(t *testing.T) {
	skipUnderRace(t)
	assertGolden(t, "scenario3.golden", runEntry(t, "scenario3"))
}

// TestGoldenScenario4 pins a short sharding sweep (1 and 4 shards,
// 8 flows, both modes).
func TestGoldenScenario4(t *testing.T) {
	skipUnderRace(t)
	results, err := RunScenario4Sweep([]int{1, 4}, 8, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "scenario4.golden", FormatScenario4(results))
}

// TestGoldenScenario5 pins a short WAN loss sweep (0 and 0.5 % i.i.d.
// loss, 20 ms RTT, 100 Mbit/s bottleneck, both modes and both stacks).
func TestGoldenScenario5(t *testing.T) {
	skipUnderRace(t)
	results, err := RunScenario5LossSweep([]float64{0, 0.005}, 10e6, 100e6, "", 300e6)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "scenario5.golden", FormatScenario5("golden loss sweep", results))
}

// TestGoldenScenario9 pins a short request/response sweep: one
// open-loop and one closed-loop point per protocol on a clean link,
// both modes. Per-request quantiles are merged across two shards, so
// any steering, epoll-ordering or histogram-merge drift shows up as a
// byte diff.
func TestGoldenScenario9(t *testing.T) {
	skipUnderRace(t)
	var b strings.Builder
	for _, proto := range []string{"http", "dns"} {
		open, err := RunScenario9RateSweep(proto, 2, 8, []float64{4000}, netem.Config{}, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(FormatScenario9(proto+" golden open-loop point", open))
		closed, err := RunScenario9ConcurrencySweep(proto, 2, []int{8}, netem.Config{}, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(FormatScenario9(proto+" golden closed-loop point", closed))
	}
	assertGolden(t, "scenario9.golden", b.String())
}

// TestGoldenScenario10 pins the fault-storm grid: {baseline, cheri} x
// {clean, 2-fault storm} on the short test configuration. Any drift in
// crash semantics, restart ordering, reconnect timing or the MTTR
// probe shows up as a byte diff in the dip/blast/MTTR columns.
func TestGoldenScenario10(t *testing.T) {
	skipUnderRace(t)
	results, err := RunScenario10Sweep(Scenario10Config{
		Shards: 3, Faults: 2, MTBFNS: 40e6,
		Conns: 2, DurationNS: 300e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "scenario10.golden", FormatScenario10(results))
}

// The goldens below were captured immediately before the scenario
// harness replaced the per-scenario bulk-flow drivers, at test-sized
// durations: they fence the paths the older goldens do not reach.

// TestGoldenScenario4Server pins Scenario 4 with the local shards
// receiving: listeners cloned across every shard, the peer's source
// ports engineered to round-robin the RSS queues.
func TestGoldenScenario4Server(t *testing.T) {
	skipUnderRace(t)
	var results []Scenario4Result
	for _, cfg := range []Scenario4Config{{Shards: 1}, {Shards: 4}, {Shards: 4, CapMode: true}} {
		r, err := RunScenario4(cfg, LocalIsServer, 8, 60e6)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	assertGolden(t, "scenario4_server.golden", FormatScenario4(results))
}

// TestGoldenScenario5BDP pins a short BDP sweep (2 and 40 ms RTT at
// 0.25 % loss, both modes and both stacks).
func TestGoldenScenario5BDP(t *testing.T) {
	skipUnderRace(t)
	results, err := RunScenario5BDPSweep([]int64{1e6, 20e6}, 0.0025, 100e6, "", 300e6)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "scenario5_bdp.golden", FormatScenario5("golden BDP sweep", results))
}

// TestGoldenScenario6 pins a short upload sweep (1 and 2 shards, 4
// flows, both modes and both stacks, default bursty link) and one
// download point into the RSS-cloned listeners.
func TestGoldenScenario6(t *testing.T) {
	skipUnderRace(t)
	up, err := RunScenario6Sweep([]int{1, 2}, 4, 200e6, Scenario6Config{})
	if err != nil {
		t.Fatal(err)
	}
	down, err := RunScenario6(Scenario6Config{Shards: 2, Modern: true, Download: true}, 4, 300e6)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "scenario6.golden", FormatScenario6(up)+FormatScenario6([]Scenario6Result{down}))
}

// TestGoldenScenario7 pins two RTTs x reno/cubic at 2 s per point,
// both modes.
func TestGoldenScenario7(t *testing.T) {
	skipUnderRace(t)
	results, err := RunScenario7RTTSweep([]int64{5e6, 25e6}, []string{fstack.CCReno, fstack.CCCubic}, 100e6, 2_000e6)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "scenario7.golden", FormatScenario7(results))
}

// TestGoldenScenario8 pins one churn point — 2 k idle connections
// held, 20 ms of 20 k flows/s — in both modes.
func TestGoldenScenario8(t *testing.T) {
	skipUnderRace(t)
	results, err := RunScenario8RateSweep(2, 2000, []float64{20000}, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "scenario8.golden", FormatScenario8(results))
}

// TestGoldenFigures pins Figs. 4-6 as `cherinet figN -iters 2000` prints
// them, through the registry entry and its flags: the crossing-cost
// table (sim/cost.go) is what these bytes are made of, and a changed
// constant shows up here beside the shape tests' bounds.
func TestGoldenFigures(t *testing.T) {
	skipUnderRace(t)
	for _, name := range []string{"fig4", "fig5", "fig6"} {
		assertGolden(t, name+".golden", runEntry(t, name, "-iters", "2000"))
	}
}

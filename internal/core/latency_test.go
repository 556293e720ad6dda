package core

import (
	"os"
	"testing"

	"repro/internal/stats"
)

// smallCfg keeps latency tests fast; the CLI uses bigger counts.
func smallCfg() FFWriteConfig {
	return FFWriteConfig{Iterations: 300, IntervalNS: 20_000, Payload: 1448}
}

// needRealClock gates the wall-clock latency-shape tests: their
// quartile comparisons measure the host's scheduler as much as the
// simulator, and they flake when CI machines run under CPU load. Set
// CHERINET_REALCLOCK=1 to run them (`cherinet fig4|fig5|fig6` report the
// same figures unconditionally).
func needRealClock(t *testing.T) {
	t.Helper()
	if os.Getenv("CHERINET_REALCLOCK") == "" {
		t.Skip("real-clock latency shapes flake under CI CPU load; set CHERINET_REALCLOCK=1 to run")
	}
}

// TestFFWriteFiguresStructure is the always-on half of the three
// figures: the boxes each reports, their labels and that every box holds
// exactly the iterations asked for, each a positive real-clock reading.
// It is what runs the threaded harness in tier-1; the host-dependent
// shapes stay behind needRealClock.
func TestFFWriteFiguresStructure(t *testing.T) {
	cfg := FFWriteConfig{Iterations: 50, IntervalNS: 20_000, Payload: 1448}
	for _, fig := range []struct {
		name    string
		measure func(FFWriteConfig) ([]LatencySet, error)
		labels  []string
	}{
		{"fig4", MeasureFig4, []string{"Baseline (cVM1)", "Baseline (cVM2)", "Scenario 1 (cVM1)", "Scenario 1 (cVM2)"}},
		{"fig5", MeasureFig5, []string{"Baseline", "Scenario 2 (uncontended)"}},
		{"fig6", MeasureFig6, []string{"Scenario 2 (uncontended)", "Scenario 2 (contended)"}},
	} {
		sets, err := fig.measure(cfg)
		if err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
		if len(sets) != len(fig.labels) {
			t.Fatalf("%s: %d boxes, want %d", fig.name, len(sets), len(fig.labels))
		}
		for i, s := range sets {
			if s.Label != fig.labels[i] || len(s.Samples) != cfg.Iterations {
				t.Errorf("%s box %d: %q with %d samples, want %q with %d",
					fig.name, i, s.Label, len(s.Samples), fig.labels[i], cfg.Iterations)
			}
			for _, ns := range s.Samples {
				if ns <= 0 {
					t.Errorf("%s %s: a timed ff_write read %d ns", fig.name, s.Label, ns)
					break
				}
			}
		}
	}
}

func TestFig4ShapeS1vsBaseline(t *testing.T) {
	needRealClock(t)
	sets, err := MeasureFig4(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 4 {
		t.Fatalf("want 4 boxes, got %d", len(sets))
	}
	boxes := make([]stats.Box, len(sets))
	for i, s := range sets {
		boxes[i] = stats.CleanBox(s.Samples)
		t.Logf("%-22s %v", s.Label, boxes[i])
	}
	// Shape: Scenario 1 sits above Baseline by a small fixed overhead
	// (paper: ≈125 ns of musl-Intravisor indirection), far under 10x.
	// The fixed offset shows most clearly at the fast end of the
	// distribution (Q1); medians wander with host noise.
	baseQ1 := (boxes[0].Q1 + boxes[1].Q1) / 2
	s1Q1 := (boxes[2].Q1 + boxes[3].Q1) / 2
	if s1Q1 <= baseQ1 {
		t.Errorf("Scenario 1 (q1=%.0f ns) should cost more than Baseline (q1=%.0f ns)", s1Q1, baseQ1)
	}
	if s1Q1 > baseQ1*10 {
		t.Errorf("Scenario 1 overhead too large: %.0f vs %.0f ns", s1Q1, baseQ1)
	}
}

func TestFig5ShapeS2UncontendedVsBaseline(t *testing.T) {
	needRealClock(t)
	sets, err := MeasureFig5(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 {
		t.Fatalf("want 2 boxes, got %d", len(sets))
	}
	base := stats.CleanBox(sets[0].Samples)
	s2 := stats.CleanBox(sets[1].Samples)
	t.Logf("%-26s %v", sets[0].Label, base)
	t.Logf("%-26s %v", sets[1].Label, s2)
	// Shape: the extra cross-cVM jump + mutex cost more than Baseline
	// but stay within the same order of magnitude (paper: ≈+200 ns over
	// Scenario 1's cost).
	if s2.Median <= base.Median {
		t.Errorf("Scenario 2 (%.0f ns) should cost more than Baseline (%.0f ns)",
			s2.Median, base.Median)
	}
	if s2.Median > base.Median*30 {
		t.Errorf("uncontended Scenario 2 overhead out of band: %.0f vs %.0f ns",
			s2.Median, base.Median)
	}
}

func TestFig6ShapeContentionDominates(t *testing.T) {
	needRealClock(t)
	cfg := smallCfg()
	cfg.Iterations = 800 // contention statistics need more samples
	sets, err := MeasureFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unc := stats.CleanBox(sets[0].Samples)
	con := stats.CleanBox(sets[1].Samples)
	t.Logf("%-26s %v", sets[0].Label, unc)
	t.Logf("%-26s %v", sets[1].Label, con)
	// Shape: mutex contention dominates (paper: ≈152x, ~19 µs). The
	// magnitude is host-dependent; demand a clear (2x) mean blow-up and
	// let `cherinet fig6` report the real figure.
	if con.Mean < unc.Mean*2 {
		t.Errorf("contended mean %.0f ns not clearly above uncontended %.0f ns",
			con.Mean, unc.Mean)
	}
}

func TestFig3CapabilityViolation(t *testing.T) {
	rep, err := RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", rep)
	if rep.Fault == nil {
		t.Fatal("no capability fault raised")
	}
	if rep.Fault.Kind.String() != "capability out-of-bounds" {
		t.Fatalf("fault kind %v, want capability out-of-bounds", rep.Fault.Kind)
	}
	if len(rep.Leaked) != 0 {
		t.Fatalf("attacker leaked %q", rep.Leaked)
	}
	if !rep.VictimUnaffected {
		t.Fatal("victim was affected")
	}
	if rep.AttackerState.String() != "trapped" {
		t.Fatalf("attacker state %v, want trapped", rep.AttackerState)
	}
}

func TestTable1Counts(t *testing.T) {
	row, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", row)
	if row.TotalLines < 1000 {
		t.Fatalf("implausible fstack size: %d lines", row.TotalLines)
	}
	if row.CapLines == 0 {
		t.Fatal("no capability-integration lines found")
	}
	// The port should stay a small fraction of the library, as in the
	// paper (0.99%); allow up to 10%.
	if row.Percent > 10 {
		t.Fatalf("capability lines %.1f%% of library", row.Percent)
	}
}

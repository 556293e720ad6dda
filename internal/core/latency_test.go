package core

import (
	"strings"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/stats"
)

// goldenFFCfg is the configuration testdata/fig{4,5,6}.golden pin:
// `cherinet figN -iters 2000`.
var goldenFFCfg = FFWriteConfig{Iterations: 2000, IntervalNS: 20_000, Payload: 1448}

// The figures as the registry pairs the beds.
var (
	fig4Cells = []ffCell{ffBaselineDual, ffScenario1}
	fig5Cells = []ffCell{ffBaselineSingle, ffUncontended}
	fig6Cells = []ffCell{ffUncontended, ffContended}
)

// boxesOf measures a figure on the golden configuration and returns its
// cleaned boxes, logging each and refusing a sample that is not positive.
func boxesOf(t *testing.T, cells []ffCell) []stats.Box {
	t.Helper()
	sets, err := measureFigure(goldenFFCfg, cells...)
	if err != nil {
		t.Fatal(err)
	}
	boxes := make([]stats.Box, len(sets))
	for i, s := range sets {
		boxes[i] = stats.CleanBox(s.Samples)
		t.Logf("%-26s %v", s.Label, boxes[i])
		for _, ns := range s.Samples {
			if ns <= 0 {
				t.Fatalf("%s: a timed ff_write read %d ns", s.Label, ns)
			}
		}
	}
	return boxes
}

// TestFFWriteFiguresStructure pins what each figure reports whatever the
// cost table says: its boxes, their labels, and that every box holds
// exactly the iterations asked for before the IQR filter.
func TestFFWriteFiguresStructure(t *testing.T) {
	cfg := FFWriteConfig{Iterations: 50, IntervalNS: 20_000, Payload: 1448}
	for _, fig := range []struct {
		name   string
		cells  []ffCell
		labels []string
	}{
		{"fig4", fig4Cells, []string{"Baseline (cVM1)", "Baseline (cVM2)", "Scenario 1 (cVM1)", "Scenario 1 (cVM2)"}},
		{"fig5", fig5Cells, []string{"Baseline", "Scenario 2 (uncontended)"}},
		{"fig6", fig6Cells, []string{"Scenario 2 (uncontended)", "Scenario 2 (contended)"}},
	} {
		sets, err := measureFigure(cfg, fig.cells...)
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
		}
	}
}

// TestFig4ShapeS1vsBaseline: a cVM reads its clock through the
// Intravisor, and Scenario 1 sits one trampoline crossing above the
// Baseline for it (paper: ≈ 125 ns), on both cVMs.
func TestFig4ShapeS1vsBaseline(t *testing.T) {
	boxes := boxesOf(t, fig4Cells)
	if len(boxes) != 4 {
		t.Fatalf("want 4 boxes, got %d", len(boxes))
	}
	for i := 0; i < 2; i++ {
		if d := boxes[2+i].Median - boxes[i].Median; d < 100 || d > 150 {
			t.Errorf("cVM%d: Scenario 1 median %.0f ns − Baseline %.0f ns = %.0f, want 100–150",
				i+1, boxes[2+i].Median, boxes[i].Median, d)
		}
	}
}

// TestFig5ShapeS2UncontendedVsBaseline: the cross-cVM jump, the staging
// copy and an uncontended mutex put Scenario 2 above Scenario 1 (paper:
// ≈ +200 ns), which Fig. 4 put ≈ 125 ns above the Baseline.
func TestFig5ShapeS2UncontendedVsBaseline(t *testing.T) {
	boxes := boxesOf(t, fig5Cells)
	if len(boxes) != 2 {
		t.Fatalf("want 2 boxes, got %d", len(boxes))
	}
	s1 := boxesOf(t, fig4Cells)[2]
	if d := boxes[1].Median - s1.Median; d < 150 || d > 250 {
		t.Errorf("uncontended Scenario 2 median %.0f ns − Scenario 1 %.0f ns = %.0f, want 150–250",
			boxes[1].Median, s1.Median, d)
	}
	if d := s1.Median - boxes[0].Median; d < 100 || d > 150 {
		t.Errorf("Scenario 1 median %.0f ns − single-process Baseline %.0f ns = %.0f, want 100–150",
			s1.Median, boxes[0].Median, d)
	}
}

// TestFig6ShapeContentionDominates: with a second application standing
// on the stack mutex, the mean is the hand-off (paper: ≈ 19 µs). The
// paper's "≈ 152×" is 19 µs over the 125 ns crossing; against the
// uncontended box, which holds the whole write, the ratio is what
// this test prints (DESIGN.md §15).
func TestFig6ShapeContentionDominates(t *testing.T) {
	boxes := boxesOf(t, fig6Cells)
	unc, con := boxes[0], boxes[1]
	t.Logf("contended mean / uncontended mean = %.1f×", con.Mean/unc.Mean)
	if con.Mean < 19_000*0.75 || con.Mean > 19_000*1.25 {
		t.Errorf("contended mean %.0f ns, want 19 µs ± 25 %%", con.Mean)
	}
	if con.Mean < 20*unc.Mean {
		t.Errorf("contended mean %.0f ns is under 20× the uncontended %.0f ns", con.Mean, unc.Mean)
	}
}

// refuseConnect is a site's API whose Connect is refused.
type refuseConnect struct{ fstack.API }

func (refuseConnect) Connect(int, fstack.IPv4Addr, uint16) hostos.Errno { return hostos.ECONNREFUSED }

// TestSilentHammerFailsTheRun: the threaded harness's hammer returned
// silently when its Socket or Connect failed, and the "contended" box
// was then an uncontended one. A hammer that fails now fails the run,
// by name.
func TestSilentHammerFailsTheRun(t *testing.T) {
	s, err := NewScenario2(sim.NewVClock(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := s.AppSites()
	sites[1].API = refuseConnect{sites[1].API}
	_, err = ffWriteRun(s, "fig6 contended", smallCfg(), sites, ffContended.labels, true)
	if err == nil || !strings.Contains(err.Error(), "fig6 contended") || !strings.Contains(err.Error(), "hammer failed: "+hostos.ECONNREFUSED.String()) {
		t.Fatalf("a hammer whose connect is refused: got %v, want the run to fail naming the hammer", err)
	}
}

// smallCfg keeps direct runs short.
func smallCfg() FFWriteConfig {
	return FFWriteConfig{Iterations: 300, IntervalNS: 20_000, Payload: 1448}
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
	if rep.AttackerState != "trapped" {
		t.Fatalf("attacker state %v, want trapped", rep.AttackerState)
	}
	if s := rep.String(); strings.Contains(s, "attacker read") {
		t.Fatalf("a report with nothing leaked names a read: %s", s)
	}
	rep.Leaked = []byte("flight")
	if s := rep.String(); !strings.HasSuffix(s, `; attacker read "flight"`) {
		t.Fatalf("a leak does not show in the report: %s", s)
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

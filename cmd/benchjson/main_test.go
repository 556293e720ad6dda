package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
BenchmarkScenario7/reno-8         	       1	5123456789 ns/op	        38.10 Mbit/s	       971.0 retx	        38.00 util-pct
BenchmarkScenario7/cubic-8        	       1	5234567890 ns/op	        87.80 Mbit/s	      1973.0 retx	        88.00 util-pct
BenchmarkTable1LoCCount           	     100	  10000000 ns/op	       123.0 cap-lines	         0.9900 pct
PASS
ok  	repro	12.345s
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "repro" {
		t.Fatalf("banner not parsed: %+v", doc)
	}
	if len(doc.Benches) != 3 {
		t.Fatalf("parsed %d benches, want 3", len(doc.Benches))
	}
	b := doc.Benches[1]
	if b.Name != "Scenario7/cubic" || b.Procs != 8 || b.N != 1 {
		t.Fatalf("bench header wrong: %+v", b)
	}
	if b.Metrics["Mbit/s"] != 87.8 || b.Metrics["util-pct"] != 88 {
		t.Fatalf("metrics wrong: %+v", b.Metrics)
	}
	// The unsuffixed name keeps its zero procs.
	if doc.Benches[2].Name != "Table1LoCCount" || doc.Benches[2].Procs != 0 {
		t.Fatalf("unsuffixed bench wrong: %+v", doc.Benches[2])
	}
}

func TestCompareDocsFlagsRegressions(t *testing.T) {
	old := Doc{Benches: []Result{
		{Name: "Scenario5/SACK", Metrics: map[string]float64{"Mbit/s": 80, "ns/op": 1000, "retx": 400}},
		{Name: "Removed", Metrics: map[string]float64{"ns/op": 5}},
	}}
	new := Doc{Benches: []Result{
		// Mbit/s fell 25% (regression at 10%), ns/op improved, retx
		// within threshold.
		{Name: "Scenario5/SACK", Metrics: map[string]float64{"Mbit/s": 60, "ns/op": 900, "retx": 430}},
		{Name: "Added", Metrics: map[string]float64{"ns/op": 7}},
	}}
	deltas, onlyOld, onlyNew := compareDocs(old, new, thresholds{def: 10})
	byUnit := map[string]delta{}
	for _, d := range deltas {
		if d.bench == "Scenario5/SACK" {
			byUnit[d.unit] = d
		}
	}
	if d := byUnit["Mbit/s"]; !d.regressed || d.pct != -25 {
		t.Fatalf("Mbit/s drop not flagged: %+v", d)
	}
	if d := byUnit["ns/op"]; d.regressed {
		t.Fatalf("ns/op improvement flagged as regression: %+v", d)
	}
	if d := byUnit["retx"]; d.regressed {
		t.Fatalf("retx within threshold flagged: %+v", d)
	}
	if len(onlyOld) != 1 || onlyOld[0] != "Removed" {
		t.Fatalf("removed benches wrong: %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "Added" {
		t.Fatalf("added benches wrong: %v", onlyNew)
	}
}

func TestCompareDocsThresholdAndNeutralMetrics(t *testing.T) {
	old := Doc{Benches: []Result{{Name: "X", Metrics: map[string]float64{"ns/op": 100, "cap-lines": 10}}}}
	new := Doc{Benches: []Result{{Name: "X", Metrics: map[string]float64{"ns/op": 109, "cap-lines": 99}}}}
	deltas, _, _ := compareDocs(old, new, thresholds{def: 10})
	for _, d := range deltas {
		if d.regressed {
			t.Fatalf("nothing should regress (9%% ns/op, neutral cap-lines): %+v", d)
		}
	}
	// Past the threshold it flags.
	new.Benches[0].Metrics["ns/op"] = 120
	deltas, _, _ = compareDocs(old, new, thresholds{def: 10})
	found := false
	for _, d := range deltas {
		if d.unit == "ns/op" && d.regressed {
			found = true
		}
	}
	if !found {
		t.Fatal("20% ns/op growth not flagged at 10% threshold")
	}
}

func TestCompareDocsZeroBaselineRegression(t *testing.T) {
	// allocs/op going 0 -> anything must flag even though no percent
	// change is computable (the zero-alloc guarantee regressing).
	old := Doc{Benches: []Result{{Name: "DatapathFrame", Metrics: map[string]float64{"allocs/op": 0}}}}
	new := Doc{Benches: []Result{{Name: "DatapathFrame", Metrics: map[string]float64{"allocs/op": 214}}}}
	deltas, _, _ := compareDocs(old, new, thresholds{def: 10})
	if len(deltas) != 1 || !deltas[0].regressed {
		t.Fatalf("0 -> 214 allocs/op not flagged: %+v", deltas)
	}
	out := formatCompare(deltas, nil, nil)
	if !strings.Contains(out, "new nonzero") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("zero-baseline delta rendered wrong:\n%s", out)
	}
	// Staying at zero is clean.
	new.Benches[0].Metrics["allocs/op"] = 0
	deltas, _, _ = compareDocs(old, new, thresholds{def: 10})
	if deltas[0].regressed {
		t.Fatalf("0 -> 0 flagged as regression: %+v", deltas[0])
	}
	// A metric disappearing entirely (dropped ReportAllocs) must
	// still leave a visible row.
	delete(new.Benches[0].Metrics, "allocs/op")
	deltas, _, _ = compareDocs(old, new, thresholds{def: 10})
	if len(deltas) != 1 || !deltas[0].gone {
		t.Fatalf("vanished metric not reported: %+v", deltas)
	}
	if out := formatCompare(deltas, nil, nil); !strings.Contains(out, "metric removed") {
		t.Fatalf("vanished metric row missing:\n%s", out)
	}
}

func TestFormatCompareIsMarkdown(t *testing.T) {
	deltas := []delta{{bench: "A", unit: "Mbit/s", old: 10, new: 5, pct: -50, threshold: 10, regressed: true}}
	out := formatCompare(deltas, []string{"Gone"}, []string{"New"})
	for _, want := range []string{"| benchmark |", "| A | Mbit/s |", "REGRESSION", "| Gone |", "removed", "| New |", "new"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAggregateMinOfN(t *testing.T) {
	// Three -count repeats: min keeps the best run per metric in its
	// quality direction — smallest ns/op, largest Mbit/s, smallest
	// neutral metric — so one slow outlier cannot fake a regression.
	in := `BenchmarkScenario5/SACK-8	1	300 ns/op	75.0 Mbit/s	12.0 cap-lines
BenchmarkScenario5/SACK-8	1	100 ns/op	80.0 Mbit/s	10.0 cap-lines
BenchmarkScenario5/SACK-8	1	200 ns/op	60.0 Mbit/s	11.0 cap-lines
BenchmarkOther-8	1	50 ns/op
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregate(doc, "min")
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Benches) != 2 {
		t.Fatalf("aggregated to %d benches, want 2", len(agg.Benches))
	}
	b := agg.Benches[0]
	if b.Name != "Scenario5/SACK" || b.Runs != 3 {
		t.Fatalf("first bench wrong: %+v", b)
	}
	if b.Metrics["ns/op"] != 100 || b.Metrics["Mbit/s"] != 80 || b.Metrics["cap-lines"] != 10 {
		t.Fatalf("min aggregation wrong: %+v", b.Metrics)
	}
	if agg.Benches[1].Name != "Other" || agg.Benches[1].Runs != 1 {
		t.Fatalf("singleton bench wrong: %+v", agg.Benches[1])
	}
}

func TestAggregateMedian(t *testing.T) {
	in := `BenchmarkX-8	1	300 ns/op	75.0 Mbit/s
BenchmarkX-8	1	100 ns/op	80.0 Mbit/s
BenchmarkX-8	1	200 ns/op	60.0 Mbit/s
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregate(doc, "median")
	if err != nil {
		t.Fatal(err)
	}
	m := agg.Benches[0].Metrics
	if m["ns/op"] != 200 || m["Mbit/s"] != 75 {
		t.Fatalf("median aggregation wrong: %+v", m)
	}
	// Even run counts take the lower middle — always a real
	// measurement, never an interpolated value.
	doc.Benches = doc.Benches[:2]
	agg, err = aggregate(doc, "median")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Benches[0].Metrics["ns/op"] != 100 {
		t.Fatalf("even-count median wrong: %+v", agg.Benches[0].Metrics)
	}
	if _, err := aggregate(doc, "mean"); err == nil {
		t.Fatal("unknown agg mode accepted")
	}
}

func TestPerBenchmarkThresholds(t *testing.T) {
	th, err := parseThresholds(20, "Scenario5/*=50, DatapathFrame=5")
	if err != nil {
		t.Fatal(err)
	}
	if got := th.for_("Scenario5/SACK"); got != 50 {
		t.Fatalf("glob rule not applied: got %v", got)
	}
	if got := th.for_("DatapathFrame"); got != 5 {
		t.Fatalf("exact rule not applied: got %v", got)
	}
	if got := th.for_("Scenario7/cubic"); got != 20 {
		t.Fatalf("default not applied: got %v", got)
	}

	// The same 30% ns/op growth passes the loose benchmark and fails
	// the tight one, and each row reports its own threshold.
	old := Doc{Benches: []Result{
		{Name: "Scenario5/SACK", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "DatapathFrame", Metrics: map[string]float64{"ns/op": 100}},
	}}
	new := Doc{Benches: []Result{
		{Name: "Scenario5/SACK", Metrics: map[string]float64{"ns/op": 130}},
		{Name: "DatapathFrame", Metrics: map[string]float64{"ns/op": 130}},
	}}
	deltas, _, _ := compareDocs(old, new, th)
	byBench := map[string]delta{}
	for _, d := range deltas {
		byBench[d.bench] = d
	}
	if d := byBench["Scenario5/SACK"]; d.regressed || d.threshold != 50 {
		t.Fatalf("loose benchmark flagged: %+v", d)
	}
	if d := byBench["DatapathFrame"]; !d.regressed || d.threshold != 5 {
		t.Fatalf("tight benchmark not flagged: %+v", d)
	}
	out := formatCompare(deltas, nil, nil)
	if !strings.Contains(out, "REGRESSION (>5%)") {
		t.Fatalf("per-benchmark threshold not rendered:\n%s", out)
	}

	for _, bad := range []string{"nopct", "x=notanumber", "[=5"} {
		if _, err := parseThresholds(10, bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestParseLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	repro	12.3s",
		"--- FAIL: TestX",
		"Benchmark", // no fields
		"BenchmarkBroken 	notanumber	 5 ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("line %q parsed as a benchmark", line)
		}
	}
}

func TestParseBenchmemLine(t *testing.T) {
	// -benchmem appends B/op and allocs/op columns; both must land in
	// the archive and diff in the smaller-is-better direction, so the
	// memory trajectory rides the same comparison as ns/op.
	in := "BenchmarkDatapathFrame-8   \t   16384\t     72886 ns/op\t       0 B/op\t       0 allocs/op\n"
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benches) != 1 {
		t.Fatalf("parsed %d benches, want 1", len(doc.Benches))
	}
	m := doc.Benches[0].Metrics
	for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
		if _, ok := m[unit]; !ok {
			t.Fatalf("metric %s not captured: %+v", unit, m)
		}
		if metricDirection(unit) != -1 {
			t.Fatalf("metric %s not smaller-is-better", unit)
		}
	}

	// A B/op growth past the threshold must flag alongside ns/op.
	old := Doc{Benches: []Result{{Name: "DatapathFrame", Metrics: map[string]float64{"B/op": 64, "allocs/op": 1}}}}
	new := Doc{Benches: []Result{{Name: "DatapathFrame", Metrics: map[string]float64{"B/op": 96, "allocs/op": 1}}}}
	deltas, _, _ := compareDocs(old, new, thresholds{def: 10})
	flagged := false
	for _, d := range deltas {
		if d.unit == "B/op" && d.regressed {
			flagged = true
		}
		if d.unit == "allocs/op" && d.regressed {
			t.Fatalf("unchanged allocs/op flagged: %+v", d)
		}
	}
	if !flagged {
		t.Fatal("50% B/op growth not flagged at 10% threshold")
	}
}

func TestPollsPerOpIsLowerBetter(t *testing.T) {
	// BenchmarkTable2 reports the driver's poll count beside the
	// goodput: a poll count that grows is a host-cost regression even
	// when every virtual result holds.
	in := "BenchmarkTable2/Scenario1/Server-2 \t 1\t 402385729 ns/op\t 656.9 Mbit/s:ep0\t 656.9 Mbit/s:ep1\t 187888 polls/op\n"
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benches) != 1 || doc.Benches[0].Metrics["polls/op"] != 187888 {
		t.Fatalf("polls/op not captured: %+v", doc.Benches)
	}
	grown := Doc{Benches: []Result{{Name: "Table2/Scenario1/Server", Metrics: map[string]float64{"polls/op": 805104}}}}
	deltas, _, _ := compareDocs(doc, grown, thresholds{def: 30})
	for _, d := range deltas {
		if d.unit == "polls/op" && d.regressed {
			return
		}
	}
	t.Fatalf("a fourfold polls/op growth was not flagged: %+v", deltas)
}

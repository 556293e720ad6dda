// Command benchjson converts `go test -bench` text output into a JSON
// document, one record per benchmark result line, so CI can archive a
// run as a machine-readable BENCH_*.json artifact and the performance
// trajectory can be diffed across commits.
//
// Usage:
//
//	go test -run xxx -bench Scenario -benchtime 1x -count 3 . | benchjson -agg min -out BENCH_scenarios.json
//	benchjson -compare old.json new.json [-threshold 10] [-thresholds 'Scenario5/*=25,DatapathFrame=5']
//
// A benchmark line like
//
//	BenchmarkScenario7/cubic-8   1   5123 ns/op   87.8 Mbit/s   88 util-pct
//
// becomes
//
//	{"name":"Scenario7/cubic","procs":8,"n":1,"metrics":{"ns/op":5123,"Mbit/s":87.8,"util-pct":88}}
//
// With `go test -count N` the output repeats each benchmark N times;
// -agg collapses the repeats into one record per benchmark before
// archiving, either `min` (the direction-aware best run per metric —
// the classic min-of-N that strips scheduler noise) or `median` (the
// middle run per metric, robust to a single outlier in either
// direction). Comparing aggregated documents is what makes a hard
// regression gate viable: single-run smoke numbers are too noisy to
// fail a build on.
//
// Compare mode diffs two archived documents: it prints a markdown
// table of per-benchmark metric deltas (suitable for a CI job
// summary) and exits non-zero when any directional metric regressed
// by more than the threshold percentage — which is what turns the
// per-commit artifacts into an actionable trajectory instead of a
// write-only archive. -thresholds overrides the default threshold for
// benchmarks matching a glob (first match wins), so tight bounds on
// stable microbenchmarks can coexist with looser ones on noisy
// end-to-end scenarios.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix go test appends to the name.
	Procs int `json:"procs,omitempty"`
	// N is the iteration count of the run.
	N int64 `json:"n"`
	// Runs counts the -count repeats folded into this record by -agg
	// (0 or absent = a raw single-run record).
	Runs int `json:"runs,omitempty"`
	// Metrics maps unit -> value for every "value unit" pair on the
	// line (ns/op, MB/s, B/op, allocs/op and custom ReportMetric
	// units alike).
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the archived document.
type Doc struct {
	// Goos/Goarch/Pkg echo the `go test` banner lines when present.
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	Benches []Result `json:"benches"`
}

// parseLine decodes one "Benchmark..." result line; ok is false for
// anything else (PASS, ok, banners, failures).
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			procs = p
			name = name[:i]
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Procs: procs, N: n, Metrics: map[string]float64{}}
	// The rest alternates value unit [value unit ...].
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// parse consumes go test -bench output and builds the document.
func parse(in io.Reader) (Doc, error) {
	var doc Doc
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
		default:
			if r, ok := parseLine(line); ok {
				doc.Benches = append(doc.Benches, r)
			}
		}
	}
	return doc, sc.Err()
}

// aggregate folds -count repeats of the same benchmark into one
// record per (name, procs), preserving first-appearance order. mode
// is "min" or "median":
//
//   - min keeps, per metric, the value of the best run in that
//     metric's quality direction (smallest ns/op, largest Mbit/s;
//     neutral metrics take the smallest). One slow run — a scheduler
//     hiccup, a cold cache — cannot then masquerade as a regression.
//   - median keeps the middle value per metric (even counts take the
//     lower middle so the result is always a real measured value),
//     robust to one outlier in either direction.
func aggregate(doc Doc, mode string) (Doc, error) {
	if mode != "min" && mode != "median" {
		return Doc{}, fmt.Errorf("unknown -agg mode %q (want min or median)", mode)
	}
	type key struct {
		name  string
		procs int
	}
	byKey := map[key][]Result{}
	var order []key
	for _, b := range doc.Benches {
		k := key{b.Name, b.Procs}
		if _, seen := byKey[k]; !seen {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], b)
	}
	out := doc
	out.Benches = nil
	for _, k := range order {
		runs := byKey[k]
		agg := Result{Name: k.name, Procs: k.procs, N: runs[0].N, Runs: len(runs), Metrics: map[string]float64{}}
		units := map[string]bool{}
		for _, r := range runs {
			for unit := range r.Metrics {
				units[unit] = true
			}
		}
		for unit := range units {
			var vals []float64
			for _, r := range runs {
				if v, ok := r.Metrics[unit]; ok {
					vals = append(vals, v)
				}
			}
			sort.Float64s(vals)
			switch {
			case mode == "median":
				agg.Metrics[unit] = vals[(len(vals)-1)/2]
			case metricDirection(unit) > 0:
				agg.Metrics[unit] = vals[len(vals)-1]
			default:
				agg.Metrics[unit] = vals[0]
			}
		}
		out.Benches = append(out.Benches, agg)
	}
	return out, nil
}

// thresholds resolves the regression threshold for a benchmark: the
// first -thresholds rule whose glob matches the name wins, else the
// -threshold default.
type thresholds struct {
	def   float64
	rules []thresholdRule
}

type thresholdRule struct {
	glob string
	pct  float64
}

// parseThresholds decodes a "glob=pct,glob=pct" spec.
func parseThresholds(def float64, spec string) (thresholds, error) {
	th := thresholds{def: def}
	if spec == "" {
		return th, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		glob, pctStr, ok := strings.Cut(part, "=")
		if !ok {
			return th, fmt.Errorf("threshold rule %q is not glob=pct", part)
		}
		if _, err := path.Match(glob, ""); err != nil {
			return th, fmt.Errorf("threshold rule %q: bad glob: %v", part, err)
		}
		pct, err := strconv.ParseFloat(pctStr, 64)
		if err != nil {
			return th, fmt.Errorf("threshold rule %q: bad percent: %v", part, err)
		}
		th.rules = append(th.rules, thresholdRule{glob: glob, pct: pct})
	}
	return th, nil
}

// for_ returns the threshold applying to the named benchmark.
func (t thresholds) for_(bench string) float64 {
	for _, r := range t.rules {
		if ok, _ := path.Match(r.glob, bench); ok {
			return r.pct
		}
	}
	return t.def
}

// metricDirection classifies a metric unit: +1 when larger values are
// better (rates, utilization), -1 when smaller values are better
// (times, allocations, retransmissions), 0 when the metric carries no
// quality direction (counts like cap-lines) and is reported only.
func metricDirection(unit string) int {
	switch unit {
	case "Mbit/s", "MB/s", "util-pct", "done/s", "blast-min":
		return +1
	case "ns/op", "B/op", "allocs/op", "retx", "ns-mean", "ns-med",
		"p99-µs", "timeouts", "mttr-ms", "polls/op":
		return -1
	}
	// Custom ReportMetric units with a known prefix (ns-mean:label).
	switch {
	case strings.HasPrefix(unit, "ns-mean:"), strings.HasPrefix(unit, "ns-med:"):
		return -1
	case strings.HasPrefix(unit, "Mbit/s:"):
		return +1
	}
	return 0
}

// delta is one compared metric.
type delta struct {
	bench, unit string
	old, new    float64
	pct         float64 // signed percent change, new vs old
	threshold   float64 // the threshold that applied to this benchmark
	regressed   bool
	gone        bool // metric present in old, absent from new
	added       bool // metric present in new, absent from old
}

// compareDocs diffs two archived documents benchmark-by-benchmark.
// th resolves, per benchmark, how many percent a directional metric
// may move in the "worse" direction before it counts as a regression.
func compareDocs(old, new Doc, th thresholds) (deltas []delta, onlyOld, onlyNew []string) {
	oldBy := map[string]Result{}
	for _, b := range old.Benches {
		oldBy[b.Name] = b
	}
	seen := map[string]bool{}
	for _, nb := range new.Benches {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			onlyNew = append(onlyNew, nb.Name)
			continue
		}
		thresholdPct := th.for_(nb.Name)
		units := make([]string, 0, len(nb.Metrics))
		for unit := range nb.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			nv := nb.Metrics[unit]
			ov, ok := ob.Metrics[unit]
			if !ok {
				// Symmetric to the "metric removed" rows below: a new
				// metric's first appearance is visible, not silent.
				deltas = append(deltas, delta{bench: nb.Name, unit: unit, new: nv, added: true})
				continue
			}
			d := delta{bench: nb.Name, unit: unit, old: ov, new: nv, threshold: thresholdPct}
			if ov != 0 {
				d.pct = (nv - ov) / ov * 100
			}
			switch metricDirection(unit) {
			case +1:
				d.regressed = ov != 0 && d.pct < -thresholdPct
			case -1:
				// A zero baseline growing to anything is a regression
				// no percentage can express — exactly the case a
				// zero-alloc guarantee regressing must not slip
				// through.
				d.regressed = (ov != 0 && d.pct > thresholdPct) || (ov == 0 && nv > 0)
			}
			deltas = append(deltas, d)
		}
		// A metric that vanished (a dropped ReportAllocs, a renamed
		// unit) must show up, or a guarded baseline could silently
		// leave the trajectory.
		oldUnits := make([]string, 0, len(ob.Metrics))
		for unit := range ob.Metrics {
			if _, ok := nb.Metrics[unit]; !ok {
				oldUnits = append(oldUnits, unit)
			}
		}
		sort.Strings(oldUnits)
		for _, unit := range oldUnits {
			deltas = append(deltas, delta{bench: nb.Name, unit: unit, old: ob.Metrics[unit], gone: true})
		}
	}
	for _, ob := range old.Benches {
		if !seen[ob.Name] {
			onlyOld = append(onlyOld, ob.Name)
		}
	}
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return deltas, onlyOld, onlyNew
}

// formatCompare renders the diff as a markdown table (CI job
// summaries render it directly; it reads fine as plain text too).
// Each regression row names the threshold that applied to its
// benchmark, since -thresholds can vary it per benchmark.
func formatCompare(deltas []delta, onlyOld, onlyNew []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| benchmark | metric | old | new | delta | |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---|\n")
	for _, d := range deltas {
		if d.gone {
			fmt.Fprintf(&b, "| %s | %s | %.4g | | | metric removed |\n", d.bench, d.unit, d.old)
			continue
		}
		if d.added {
			fmt.Fprintf(&b, "| %s | %s | | %.4g | | metric added |\n", d.bench, d.unit, d.new)
			continue
		}
		flag := ""
		if d.regressed {
			flag = fmt.Sprintf("REGRESSION (>%.0f%%)", d.threshold)
		}
		pct := fmt.Sprintf("%+.1f%%", d.pct)
		if d.old == 0 && d.new != 0 {
			pct = "new nonzero"
		}
		fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g | %s | %s |\n",
			d.bench, d.unit, d.old, d.new, pct, flag)
	}
	for _, name := range onlyOld {
		fmt.Fprintf(&b, "| %s | | | | | removed |\n", name)
	}
	for _, name := range onlyNew {
		fmt.Fprintf(&b, "| %s | | | | | new |\n", name)
	}
	return b.String()
}

// loadDoc reads one archived document.
func loadDoc(path string) (Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return Doc{}, err
	}
	defer f.Close()
	var doc Doc
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return Doc{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two archived JSON documents: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 10, "default regression threshold in percent (compare mode)")
	thresholdSpec := flag.String("thresholds", "", "per-benchmark threshold overrides, glob=pct comma-separated (compare mode); first matching glob wins")
	agg := flag.String("agg", "", "fold -count repeats of each benchmark before archiving: min (direction-aware best run) or median")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		th, err := parseThresholds(*threshold, *thresholdSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		oldDoc, err := loadDoc(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		newDoc, err := loadDoc(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		deltas, onlyOld, onlyNew := compareDocs(oldDoc, newDoc, th)
		fmt.Print(formatCompare(deltas, onlyOld, onlyNew))
		failed := false
		for _, d := range deltas {
			if d.regressed {
				failed = true
				fmt.Fprintf(os.Stderr, "benchjson: %s %s regressed %.1f%% (%.4g -> %.4g)\n",
					d.bench, d.unit, d.pct, d.old, d.new)
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(doc.Benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	if *agg != "" {
		if doc, err = aggregate(doc, *agg); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

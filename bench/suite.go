package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The suite: what `bench` does with no -workload. It spawns one child
// per (workload, round), never two at once, so load always comes from
// one process. Rounds are interleaved round-robin across workloads: a
// noisy period on the host then hits one run of each workload instead
// of every run of one. A traced child per workload follows. Each child
// is exactly the single-run invocation the benchmark contract names.

// benchSpec is BENCHMARK.json, the one place metric names, directions
// and bounds are recorded.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// series is one end-to-end metric's values over the suite's rounds.
type series struct {
	Unit      string    `json:"unit"`
	Values    []float64 `json:"values"`
	Median    float64   `json:"median"`
	Q1        float64   `json:"q1"`
	Q3        float64   `json:"q3"`
	SpreadPct float64   `json:"spread_pct"`
}

func newSeries(unit string, vals []float64) series {
	q1, q2, q3 := quartiles(vals)
	s := series{Unit: unit, Values: vals, Median: q2, Q1: q1, Q3: q3}
	if q2 != 0 {
		s.SpreadPct = (q3 - q1) / q2 * 100
	}
	return s
}

type workloadResults struct {
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Runs      []*runDetail      `json:"runs"`
	TracedRun *runDetail        `json:"traced_run,omitempty"`
}

type suiteMeta struct {
	Commit      string  `json:"git_commit"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Parallelism int     `json:"parallelism"`
	Seed        uint64  `json:"seed"`
	Rounds      int     `json:"rounds"`
	Seconds     float64 `json:"seconds_per_run"`
	Started     string  `json:"started"`
}

type suiteResults struct {
	Meta      suiteMeta                   `json:"meta"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child runs one single-run invocation of this binary and parses its
// result line and its detail line.
func child(exe string, w string, seed uint64, seconds float64, trace int) (result, error) {
	cmd := exec.Command(exe, "-workload", w, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return res, fmt.Errorf("%s: %w", w, err)
		}
		return res, fmt.Errorf("%s: result line: %w", w, jerr)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, detailPrefix); ok {
			res.detail = &runDetail{}
			if jerr := json.Unmarshal([]byte(rest), res.detail); jerr != nil {
				return res, fmt.Errorf("%s: detail line: %w", w, jerr)
			}
		}
	}
	// A child that printed a result but failed a check exits non-zero;
	// its result (correct=false) is what the suite reports.
	return res, nil
}

func runSuite(seed uint64, seconds float64, rounds int, outPath string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := suiteResults{
		Meta: suiteMeta{Commit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Parallelism: 1, Seed: seed, Rounds: rounds, Seconds: seconds,
			Started: time.Now().UTC().Format(time.RFC3339)},
		Workloads: map[string]*workloadResults{},
	}
	ok := true
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, w := range workloads {
		res.Workloads[w.name] = &workloadResults{EndToEnd: map[string]series{}}
		vals[w.name] = map[string][]float64{}
	}
	for r := 0; r < rounds; r++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "bench: round %d/%d %s\n", r+1, rounds, w.name)
			cr, err := child(exe, w.name, seed, seconds, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			wr := res.Workloads[w.name]
			ok = ok && cr.Correct
			wr.Attempted += cr.Attempted
			wr.Failed += cr.Failed
			wr.Runs = append(wr.Runs, cr.detail)
			for name, m := range cr.Metrics {
				vals[w.name][name] = append(vals[w.name][name], m.Value)
				units[name] = m.Unit
			}
			// Counts and virtual results repeat exactly, round to round.
			if first := wr.Runs[0]; cr.detail != nil && first != nil && cr.detail.Record != first.Record {
				fmt.Fprintf(os.Stderr, "bench: %s: round %d's virtual results differ from round 1's\n", w.name, r+1)
				ok = false
			}
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: traced pass %s\n", w.name)
		cr, err := child(exe, w.name, seed, seconds, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		wr := res.Workloads[w.name]
		ok = ok && cr.Correct
		wr.PerLayer = cr.Metrics
		wr.TracedRun = cr.detail
		if len(wr.Runs) > 0 && wr.Runs[0] != nil && cr.detail != nil && cr.detail.Record != wr.Runs[0].Record {
			fmt.Fprintf(os.Stderr, "bench: %s: traced run's virtual results differ from the untraced runs'\n", w.name)
			ok = false
		}
		for name, v := range vals[w.name] {
			wr.EndToEnd[name] = newSeries(units[name], v)
		}
	}
	printSuite(stdout, res)
	if err := writeJSON(outPath, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresults written to %s\n", outPath)
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printSuite(w io.Writer, res suiteResults) {
	fmt.Fprintf(w, "commit %s  %s  nproc %d  GOMAXPROCS %d  parallelism %d  seed %d  rounds %d x %.0f s\n",
		res.Meta.Commit, res.Meta.GoVersion, res.Meta.NProc, res.Meta.GOMAXPROCS, res.Meta.Parallelism,
		res.Meta.Seed, res.Meta.Rounds, res.Meta.Seconds)
	for _, wl := range workloads {
		wr := res.Workloads[wl.name]
		fmt.Fprintf(w, "\n== %s  (attempted %d, failed %d)\n", wl.name, wr.Attempted, wr.Failed)
		fmt.Fprintf(w, "  %-28s %14s %-8s %12s %12s %8s %s\n", "end-to-end", "median", "unit", "q1", "q3", "spread", "n")
		for _, name := range sortedKeys(wr.EndToEnd) {
			s := wr.EndToEnd[name]
			fmt.Fprintf(w, "  %-28s %14.6g %-8s %12.6g %12.6g %7.2f%% %d\n", name, s.Median, s.Unit, s.Q1, s.Q3, s.SpreadPct, len(s.Values))
		}
		fmt.Fprintf(w, "  %-36s %14s %s\n", "per-layer (traced run)", "value", "unit")
		for _, name := range sortedKeys(wr.PerLayer) {
			m := wr.PerLayer[name]
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
}

// compare applies BENCHMARK.json's bounds to two results files and
// prints one row per workload and end-to-end metric.
func compare(specPath, aPath, bPath string, w io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	load := func(path string) (suiteResults, error) {
		var r suiteResults
		b, err := os.ReadFile(path)
		if err != nil {
			return r, err
		}
		return r, json.Unmarshal(b, &r)
	}
	a, err := load(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := load(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	worse, unresolved := 0, 0
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %7s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-14s missing from one file\n", wl.Name)
			unresolved++
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || sa.Median == 0 {
				fmt.Fprintf(w, "%-14s %-20s missing from one file\n", wl.Name, m.Name)
				unresolved++
				continue
			}
			// change > 0 means B is worse than A, as a share of A.
			change := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" && change != 0 {
				change = -change
			}
			spread := max(sa.SpreadPct, sb.SpreadPct) / 100
			verdict := "within bound"
			switch {
			case spread > m.Bound && m.Name != "setup_s":
				// The runs of one side disagree by more than the bound:
				// neither a regression nor its absence can be read off.
				verdict = "unresolved"
				unresolved++
			case change > m.Bound:
				verdict = "worse"
				worse++
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+7.2f%% %6.1f%% %7.2f%%  %s\n",
				wl.Name, m.Name, sa.Median, sb.Median, change*100, m.Bound*100, spread*100, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d worse, %d unresolved (change: share of A by which B is worse)\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}

package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test runs every workload in the quick profile (short virtual
// durations, one pass, minimal probe counts) and checks the benchmark
// against BENCHMARK.json: every listed name is emitted with its unit,
// nothing unlisted is, virtual results repeat for one seed and differ
// between seeds where a workload is seeded.

func quickRun(t *testing.T, name string, seed uint64, trace bool) result {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("workload %q is in BENCHMARK.json but not in the benchmark", name)
	}
	res, err := runWorkload(runConfig{w: w, seed: seed, seconds: 0, trace: trace, quick: true})
	if err != nil {
		t.Fatalf("%s (seed %d, trace %v): %v", name, seed, trace, err)
	}
	if !res.Correct {
		t.Errorf("%s (seed %d, trace %v): checks failed: %v", name, seed, trace, res.detail.Problems)
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("%s: attempted %d, failed %d; want work done and none failed", name, res.Attempted, res.Failed)
	}
	return res
}

func checkNames(t *testing.T, what string, got map[string]metric, want []metricSpec) {
	t.Helper()
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is listed in BENCHMARK.json but not emitted", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s emitted in %q, listed in %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !listed[name] {
			t.Errorf("%s: %s is emitted but not listed in BENCHMARK.json", what, name)
		}
	}
}

// seeded names the workloads whose links draw from the seed.
var seeded = map[string]bool{"wan_recovery": true, "rpc_http": true, "rpc_dns": true}

func TestQuickProfileMatchesSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := quickRun(t, w.Name, 1, false)
			checkNames(t, "untraced run", a.Metrics, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if a.Metrics[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			traced := quickRun(t, w.Name, 1, true)
			checkNames(t, "traced run", traced.Metrics, spec.PerLayer)
			if traced.detail.Record != a.detail.Record {
				t.Errorf("traced run's virtual results differ from the untraced run's")
			}
			cpu := 0.0
			for _, l := range append(append([]string(nil), layers...), runtimeBG) {
				cpu += traced.Metrics[l+".cpu_pct"].Value
			}
			if cpu < 99 || cpu > 101 {
				t.Errorf("layer CPU shares sum to %.2f, want 100", cpu)
			}
			other := quickRun(t, w.Name, 2, false)
			if differs := other.detail.Record != a.detail.Record; differs != seeded[w.Name] {
				t.Errorf("virtual results differ between seeds: %v, want %v", differs, seeded[w.Name])
			}
		})
	}
}

func TestResultLineShape(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-workload", "rpc_dns", "-seed", "3", "-seconds", "0", "-trace", "0", "-quick"}, &out); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(obj) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(obj))
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := benchSpec{
		Workloads: []struct {
			Name string `json:"name"`
		}{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "virt_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	file := func(name string, wall, ops []float64) string {
		r := suiteResults{Workloads: map[string]*workloadResults{"w": {EndToEnd: map[string]series{
			"wall_s": newSeries("s", wall), "virt_ops_per_s": newSeries("1/s", ops)}}}}
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(specPath, spec); err != nil {
		t.Fatal(err)
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.00}
	base := file("a.json", steady, []float64{100, 100, 100, 100, 100})
	for _, tc := range []struct {
		name      string
		wall, ops []float64
		code      int
		verdicts  []string
	}{
		{"same", steady, []float64{100, 100, 100, 100, 100}, 0, []string{"within bound", "within bound"}},
		{"slower", []float64{1.2, 1.21, 1.19, 1.2, 1.2}, []float64{100, 100, 100, 100, 100}, 1, []string{"worse", "within bound"}},
		{"faster, fewer ops", []float64{0.8, 0.8, 0.8, 0.8, 0.8}, []float64{80, 80, 80, 80, 80}, 1, []string{"better", "worse"}},
		{"noisy", []float64{0.9, 1.5, 1.1, 1.9, 1.0}, []float64{100, 100, 100, 100, 100}, 0, []string{"unresolved", "within bound"}},
	} {
		var out strings.Builder
		code := compare(specPath, base, file("b.json", tc.wall, tc.ops), &out)
		if code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		rows := strings.Split(out.String(), "\n")[1:]
		for i, want := range tc.verdicts {
			if !strings.HasSuffix(rows[i], want) {
				t.Errorf("%s: row %q, want verdict %q", tc.name, rows[i], want)
			}
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/fstack.(*Stack).poll":                                                       "fstack",
		"repro/internal/fstack.(*Stack).inputTCP.func1":                                             "fstack",
		"repro/internal/fstack/connscale.(*Wheel[go.shape.*repro/internal/fstack.tcpConn]).Advance": "connscale",
		"repro/internal/fstack/connscale.New[go.shape.*uint8]":                                      "connscale",
		"repro/internal/core.RunCells[go.shape.struct { repro/internal/core.Mbps float64 }].func1":  "core",
		"repro/internal/testbed.(*Bed).NextDeadline":                                                "testbed",
		"runtime.mallocgc": "",
		"main.runPass":     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// Innermost repository frame wins; lock, map and memmove time lands
	// on the layer that called it and is also counted by leaf kind.
	samples := []stackSample{
		{funcs: []string{"sync.(*Mutex).Lock", "repro/internal/nic.(*Port).Step", "repro/internal/fstack.(*Stack).poll", "main.runPass"}, count: 3},
		{funcs: []string{"runtime.memmove", "repro/internal/fstack.(*Stack).poll"}, count: 2},
		{funcs: []string{"runtime.gcBgMarkWorker"}, count: 4},
		{funcs: []string{"runtime.gcDrain", "runtime.GC", "main.runPass"}, count: 50},
		{funcs: []string{"main.init.func2", "main.calibSlice", "main.runPass"}, count: 20},
		{funcs: []string{"repro/internal/newlayer.F"}, count: 1},
	}
	a := attribute(samples)
	if a.total != 10 || a.byLayer["nic"] != 3 || a.byLayer["fstack"] != 2 || a.byLayer[runtimeBG] != 4 ||
		a.unknown != 1 || a.cross["sync"] != 3 || a.cross["memmove"] != 2 {
		t.Errorf("attribution = %+v", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := run([]string{"-workload", "nope"}, io.Discard); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/core"
	"repro/internal/testbed"
)

// The traced run. End-to-end numbers come from untraced runs; this pass
// runs the same cells again for the per-layer ledger: reference passes
// with nothing attached, passes under a CPU profile started from here
// and charged to layers, the beds' own counters, the differential cells
// and the layer probes. Its virtual results must equal the untraced
// ones whatever is attached.

// obsOn is the instrument set obs.overhead_pct is measured with.
var obsOn = testbed.ObsSpec{TraceEvents: 1 << 20, SampleNS: 1e6, Latency: true}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sameCells reports whether two passes measured identical virtual
// results in the cells at idx.
func sameCells(a, b []cellResult, idx []int) bool {
	for j, i := range idx {
		if !reflect.DeepEqual(a[i], b[j]) {
			return false
		}
	}
	return true
}

func runTraced(rc runConfig, cells []cell) (result, error) {
	var problems []string

	// Reference: untraced passes, the base of every differential.
	cpu0 := cpuSeconds()
	ref, err := measure(cells, testbed.ObsSpec{}, rc.seconds*0.3, 1)
	if err != nil {
		return result{}, err
	}
	cpuPerPass := (cpuSeconds() - cpu0) / float64(ref.passes)
	if ref.recordsDisagreeAt >= 0 {
		problems = append(problems, fmt.Sprintf("pass %d's virtual results differ from pass 0's", ref.recordsDisagreeAt))
	}

	// Profiled passes.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("starting CPU profile: %w", err)
	}
	traced, err := measure(cells, testbed.ObsSpec{}, rc.seconds*0.4, 1)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	if traced.record != ref.record || traced.recordsDisagreeAt >= 0 {
		problems = append(problems, "profiled passes' virtual results differ from the unprofiled ones")
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	att := attribute(samples)
	if att.total == 0 {
		return result{}, fmt.Errorf("CPU profile holds no samples")
	}
	if share := att.pct(att.unknown); share > 5 {
		return result{}, fmt.Errorf("%.1f%% of CPU samples fall in repro/internal packages the layer list does not name", share)
	}

	v := summarize(cells, ref.lastPass.Cells)
	problems = append(problems, checkVirtual(cells, ref.lastPass.Cells, v)...)

	out := map[string]metric{}
	set := func(name string, val float64, unit string) {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0 // a ratio over a count that is zero on this workload
		}
		out[name] = metric{val, unit}
	}

	// CPU share per layer; the by-leaf shares overlap them.
	named := att.total - att.unknown
	for _, l := range append(append([]string(nil), layers...), runtimeBG) {
		set(l+".cpu_pct", float64(att.byLayer[l])/float64(named)*100, "%")
	}
	for _, k := range []string{"sync", "maps", "memmove"} {
		set(k+".cpu_pct", att.pct(att.cross[k]), "%")
	}
	// Each differential divides two sets of passes run minutes apart on
	// a host that changes speed, so each side is first scaled by its own
	// calibration slowdown.
	base := ref.wallS / ref.slowdown
	set("trace.overhead_pct", (traced.wallS/traced.slowdown/base-1)*100, "%")

	// Differentials, each one more pass over the cells it applies to.
	set("obs.overhead_pct", 0, "%")
	var obsIdx []int
	var obsCells []cell
	for i, c := range cells {
		if c.obs {
			obsIdx = append(obsIdx, i)
			obsCells = append(obsCells, c)
		}
	}
	if len(obsCells) > 0 {
		withObs, err := measure(obsCells, obsOn, rc.seconds*0.1, 1)
		if err != nil {
			return result{}, err
		}
		obsBase := 0.0
		for _, i := range obsIdx {
			obsBase += ref.cellS[i] / ref.slowdown
		}
		set("obs.overhead_pct", (withObs.wallS/withObs.slowdown/obsBase-1)*100, "%")
		if !sameCells(ref.lastPass.Cells, withObs.lastPass.Cells, obsIdx) {
			problems = append(problems, "virtual results changed with observability on")
		}
	}

	set("testbed.parallel_speedup", 1, "x")
	if n := runtime.NumCPU(); n > 1 && ref.lastPass.sharded {
		core.SetParallelism(n)
		par, err := measure(cells, testbed.ObsSpec{}, rc.seconds*0.1, 1)
		core.SetParallelism(1)
		if err != nil {
			return result{}, err
		}
		set("testbed.parallel_speedup", base/(par.wallS/par.slowdown), "x")
		if !reflect.DeepEqual(par.lastPass.Cells, ref.lastPass.Cells) {
			problems = append(problems, "virtual results changed with parallel shard stepping")
		}
	}

	set("churn.idle_pop_cost_pct", 0, "%")
	if rc.w.refCells != nil {
		refCells := rc.w.refCells(rc.quick)
		extra, err := measure(refCells, testbed.ObsSpec{}, 0, 1)
		if err != nil {
			return result{}, err
		}
		for i, c := range refCells {
			switch c.name {
			case cellNoIdle:
				set("churn.idle_pop_cost_pct", (1-extra.cellS[i]/extra.slowdown/base)*100, "%")
			case cellBaselineStorm:
				all := append(append([]cell(nil), cells...), c)
				rs := append(append([]cellResult(nil), ref.lastPass.Cells...), extra.lastPass.Cells[i])
				v.baselineBlastRatio = summarize(all, rs).baselineBlastRatio
			}
		}
	}

	// Exact counters from the beds, per pass.
	c := ref.lastPass.Counters
	for _, name := range counterNames {
		set(name, float64(c[name]), "count")
	}
	set("fstack.retained_bytes", float64(c["fstack.retained_bytes"]), "B")
	frames := float64(c["fstack.rx_frames"])
	set("core.loop_iters", float64(c["core.loop_iters"]), "count")
	set("core.virt_s", float64(c["core.virt_ns"])/1e9, "virt_s")
	set("core.frames", frames, "count")
	set("core.alloc_mb", ref.allocB/1e6, "MB")
	set("core.cpu_s", cpuPerPass, "s")
	set("core.wall_min_s", ref.wallMinS, "s")
	set("core.wall_spread_pct", ref.wallSpreadPct, "%")
	set("core.calib_slowdown", ref.slowdown, "x")
	set("intravisor.crossings_per_frame", float64(c["intravisor.crossings"])/frames, "1/frame")
	set("fstack.retx_pct", float64(c["fstack.retx"])/float64(c["fstack.tx_frames"])*100, "%")

	// Virtual figures that belong to one layer or one workload.
	set("iperf.goodput_mbps", v.goodputMbps, "Mbit/s")
	set("core.paper_err_pct", v.paperErrPct, "%")
	lat := cellResult{}
	if v.lat != nil {
		lat = *v.lat
	}
	set("app.p50_us", float64(lat.P50NS)/1e3, "virt_us")
	set("app.p99_us", float64(lat.P99NS)/1e3, "virt_us")
	set("app.p999_us", float64(lat.P999NS)/1e3, "virt_us")
	set("app.latency_samples", float64(lat.LatSamples), "count")
	set("app.issued", float64(v.app.Issued), "count")
	set("app.completed", float64(v.app.Completed), "count")
	set("app.deferred", float64(v.app.Deferred), "count")
	set("app.timeouts", float64(v.app.Timeouts), "count")
	set("app.failed", float64(v.app.AppFailed), "count")
	set("app.lost", float64(v.app.Lost), "count")
	set("app.resets", float64(v.app.Resets), "count")
	set("fstack.heap_b_per_conn", v.heapPerConn, "B")
	set("faultplane.mttr_ms", v.mttrMS, "virt_ms")
	set("faultplane.mttr_max_ms", v.mttrMaxMS, "virt_ms")
	set("faultplane.blast_ratio", v.blastRatio, "ratio")
	set("faultplane.baseline_blast_ratio", v.baselineBlastRatio, "ratio")

	probes, err := runProbes(rc.quick)
	if err != nil {
		return result{}, err
	}
	for name, m := range probes {
		out[name] = m
	}

	return result{
		Correct:   len(problems) == 0,
		Attempted: v.attempted * uint64(ref.passes+traced.passes),
		Failed:    v.failed * uint64(ref.passes+traced.passes),
		Metrics:   out,
		detail:    ref.detail(rc, cells, v, problems),
	}, nil
}

// counterNames are the bed counters reported under their own names.
var counterNames = []string{
	"netem.sent", "netem.delivered", "netem.lost_random", "netem.lost_burst", "netem.queue_drops", "netem.carrier_drops",
	"nic.rx_missed", "nic.dma_faulted",
	"dpdk.ipackets", "dpdk.opackets", "dpdk.imissed",
	"fstack.rx_frames", "fstack.tx_frames", "fstack.rx_dropped", "fstack.retx", "fstack.retx_fast", "fstack.retx_sack",
	"fstack.retx_rto", "fstack.dup_acks", "fstack.persist_probes", "fstack.accepts", "fstack.syn_drops",
	"fstack.accept_overflows", "fstack.timewait_reuses", "fstack.udp_queue_drops", "fstack.retained_bytes",
	"intravisor.crossings", "faultplane.restarts", "faultplane.giveups",
}

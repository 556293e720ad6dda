package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fstack"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// counters are a pass's exact per-layer counts, summed over its cells
// and read from each bed's public counters after the cell's run.
type counters map[string]uint64

func (c counters) addBed(b *testbed.Bed) {
	for _, l := range b.Loops() {
		c["core.loop_iters"] += l.Iterations()
	}
	if clk, ok := b.Clk.(*sim.VClock); ok {
		c["core.virt_ns"] += uint64(clk.Now())
	}
	for _, ln := range b.Links {
		if ln == nil {
			continue
		}
		for dir := 0; dir < 2; dir++ {
			st := ln.Stats(dir)
			c["netem.sent"] += st.Sent
			c["netem.delivered"] += st.Delivered
			c["netem.lost_random"] += st.LostRandom
			c["netem.lost_burst"] += st.LostBurst
			c["netem.queue_drops"] += st.DroppedQueue
			c["netem.carrier_drops"] += st.DroppedCarrier
		}
	}
	machines := []*testbed.Machine{b.Local}
	envs := append([]*testbed.Env(nil), b.Envs...)
	for _, p := range b.Peers {
		machines = append(machines, p.M)
		envs = append(envs, p.Env)
	}
	for _, m := range machines {
		for i := 0; i < m.Card.Ports(); i++ {
			c["nic.rx_missed"] += m.Card.Port(i).Missed()
			c["nic.dma_faulted"] += m.Card.Port(i).DMAFaulted()
		}
		if m.IV != nil {
			c["intravisor.crossings"] += m.IV.Crossings.Load()
		}
	}
	for _, e := range envs {
		// A device-gated environment's EthDev sits behind its gates and
		// is not listed; its peer's device counts the same frames.
		for _, d := range e.Devs {
			st := d.Stats()
			c["dpdk.ipackets"] += st.IPackets
			c["dpdk.opackets"] += st.OPackets
			c["dpdk.imissed"] += st.IMissed
		}
		if e.Sharded != nil {
			c.addStack(e.Sharded.Stats(), e.Sharded.RetainedBytes())
		} else {
			e.Stk.Lock()
			st := e.Stk.Stats()
			e.Stk.Unlock()
			c.addStack(st, e.Stk.RetainedBytes())
		}
	}
	if b.Super != nil {
		c["faultplane.restarts"] += uint64(b.Super.Restarts)
		c["faultplane.giveups"] += uint64(b.Super.GiveUps)
	}
}

func (c counters) addStack(st fstack.StackStats, retained uint64) {
	c["fstack.rx_frames"] += st.RxFrames
	c["fstack.tx_frames"] += st.TxFrames
	c["fstack.rx_dropped"] += st.RxDropped
	c["fstack.retx"] += st.Retransmit
	c["fstack.retx_fast"] += st.FastRetransmit
	c["fstack.retx_sack"] += st.SACKRetransmit
	c["fstack.retx_rto"] += st.RTORetransmit
	c["fstack.dup_acks"] += st.DupAcks
	c["fstack.persist_probes"] += st.PersistProbes
	c["fstack.accepts"] += st.Accepts
	c["fstack.syn_drops"] += st.SynDrops
	c["fstack.accept_overflows"] += st.AcceptOverflows
	c["fstack.timewait_reuses"] += st.TimeWaitReuses
	c["fstack.udp_queue_drops"] += st.UdpQueueDrops
	c["fstack.retained_bytes"] += retained
}

// passResult is one pass over a workload's cells.
type passResult struct {
	Cells    []cellResult
	Counters counters
	// Host-side measurements, parallel to Cells.
	setupS, runS []float64
	mallocs      uint64
	allocBytes   uint64
	// sharded records that some bed ran a sharded stack, the only
	// layout host parallelism changes.
	sharded bool
	// calib holds one calibration slice per cell.
	calib [][len(kernels)]float64
}

// record is the pass's deterministic part, hashed for the identity
// checks.
func (p passResult) record() string {
	b, err := json.Marshal(struct {
		Cells    []cellResult
		Counters counters
	}{p.Cells, p.Counters})
	if err != nil {
		panic(err) // plain numbers and strings only
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// runPass builds and runs every cell once. The collection before each
// cell is outside both timed spans: it hands every cell the same heap
// state, so a cell's time does not depend on its neighbour's garbage.
func runPass(cells []cell, obs testbed.ObsSpec) (passResult, error) {
	p := passResult{Counters: counters{}}
	var m0, m1 runtime.MemStats
	for _, c := range cells {
		spec := testbed.ObsSpec{}
		if c.obs {
			spec = obs
		}
		runtime.GC()
		p.calib = append(p.calib, calibSlice())
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		bed, run, err := c.build(spec)
		if err != nil {
			return p, fmt.Errorf("%s: set-up: %w", c.name, err)
		}
		t1 := time.Now()
		res, err := run()
		t2 := time.Now()
		if err != nil {
			return p, fmt.Errorf("%s: %w", c.name, err)
		}
		runtime.ReadMemStats(&m1)
		p.setupS = append(p.setupS, t1.Sub(t0).Seconds())
		p.runS = append(p.runS, t2.Sub(t1).Seconds())
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.Cells = append(p.Cells, res)
		p.Counters.addBed(bed)
		p.sharded = p.sharded || bed.Sharded != nil
	}
	return p, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// detail is what the suite's results file adds for a reader who
	// needs to trust a number; it is not part of the contract line.
	detail *runDetail
}

// runDetail is the per-run evidence kept in the suite's results file.
type runDetail struct {
	Seed       uint64      `json:"seed"`
	Passes     int         `json:"passes"`
	Record     string      `json:"virtual_record_sha"`
	CellNames  []string    `json:"cells"`
	RunS       [][]float64 `json:"run_s_per_pass"`
	SetupS     [][]float64 `json:"setup_s_per_pass"`
	LatSamples uint64      `json:"latency_samples"`
	// Slowdown is the calibration kernels' time over their reference
	// during the run; the host-time metrics are the raw medians of RunS
	// and SetupS divided by it.
	Slowdown float64  `json:"calib_slowdown"`
	Problems []string `json:"problems,omitempty"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
}

// measured is the host-side summary of a set of passes over the same
// cells: per cell the median run time and median set-up time over the
// passes, summed. The median is the steadiest estimate this host gives:
// over ten 15 s runs of one commit the per-cell minimum spread 13-19 %
// run to run (it chases the rare moments the machine runs fast), the
// mean 10 %, the median 7-9 %. The minimum and the spread of the pass
// totals are reported beside it.
type measured struct {
	wallS, setupS     float64
	slowdown          float64 // of the calibration kernels during these passes
	wallMinS          float64
	wallSpreadPct     float64
	mallocs, allocB   float64
	cellS             []float64 // per-cell median run time
	passes            int
	runPerPass        [][]float64
	setupPerPass      [][]float64
	lastPass          passResult
	record            string
	recordsDisagreeAt int
}

// quartiles follows Python's statistics.quantiles(values, n=4), which
// is what the acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// measure repeats passes over cells for about seconds (always at least
// minPasses) and summarizes them.
func measure(cells []cell, obs testbed.ObsSpec, seconds float64, minPasses int) (measured, error) {
	var m measured
	m.recordsDisagreeAt = -1
	var passes []passResult
	start := time.Now()
	for {
		p, err := runPass(cells, obs)
		if err != nil {
			return m, err
		}
		passes = append(passes, p)
		elapsed := time.Since(start).Seconds()
		// Start another pass only if about half of it still fits.
		if len(passes) >= minPasses && elapsed+0.5*elapsed/float64(len(passes)) > seconds {
			break
		}
	}
	m.passes = len(passes)
	m.lastPass = passes[len(passes)-1]
	m.record = passes[0].record()
	var passWall, mallocs, allocB []float64
	var calib [][len(kernels)]float64
	for i, p := range passes {
		calib = append(calib, p.calib...)
		if i > 0 && m.recordsDisagreeAt < 0 && p.record() != m.record {
			m.recordsDisagreeAt = i
		}
		m.runPerPass = append(m.runPerPass, p.runS)
		m.setupPerPass = append(m.setupPerPass, p.setupS)
		passWall = append(passWall, sum(p.runS))
		mallocs = append(mallocs, float64(p.mallocs))
		allocB = append(allocB, float64(p.allocBytes))
	}
	for ci := range cells {
		var runs, setups []float64
		for _, p := range passes {
			runs = append(runs, p.runS[ci])
			setups = append(setups, p.setupS[ci])
		}
		_, run, _ := quartiles(runs)
		_, setup, _ := quartiles(setups)
		m.cellS = append(m.cellS, run)
		m.wallS += run
		m.wallMinS += slices.Min(runs)
		m.setupS += setup
	}
	if q1, q2, q3 := quartiles(passWall); q2 > 0 {
		m.wallSpreadPct = (q3 - q1) / q2 * 100
	}
	m.slowdown = slowdown(calib)
	_, m.mallocs, _ = quartiles(mallocs)
	_, m.allocB, _ = quartiles(allocB)
	return m, nil
}

// virtSummary folds a pass's cell results into the workload's virtual
// figures.
type virtSummary struct {
	ops, attempted, failed uint64
	opsPerS                float64
	lat                    *cellResult // the primary cell that measured latency
	goodputMbps            float64
	paperErrPct            float64
	app                    cellResult // summed application counters
	heapPerConn            float64
	mttrMS, mttrMaxMS      float64
	blastRatio             float64
	baselineBlastRatio     float64
}

func summarize(cells []cell, rs []cellResult) virtSummary {
	var v virtSummary
	var virtNS int64
	var mbps, perr []float64
	byName := map[string]*cellResult{}
	for i := range rs {
		r, c := &rs[i], cells[i]
		byName[c.name] = r
		v.app.Issued += r.Issued
		v.app.Completed += r.Completed
		v.app.Deferred += r.Deferred
		v.app.Timeouts += r.Timeouts
		v.app.AppFailed += r.AppFailed
		v.app.Lost += r.Lost
		v.app.Resets += r.Resets
		if !c.primary {
			continue
		}
		v.ops += r.Ops
		v.attempted += r.Attempted
		v.failed += r.Failed
		virtNS += r.VirtNS
		if v.lat == nil && r.LatSamples > 0 {
			v.lat = r
		}
		for j, m := range r.Mbps {
			mbps = append(mbps, m)
			if p := r.Paper[j]; p > 0 {
				perr = append(perr, math.Abs(m-p)/p*100)
			}
		}
		if r.HeapPerConn != 0 {
			v.heapPerConn = r.HeapPerConn
		}
	}
	if virtNS > 0 {
		v.opsPerS = float64(v.ops) / (float64(virtNS) / 1e9)
	}
	if len(mbps) > 0 {
		v.goodputMbps = sum(mbps) / float64(len(mbps))
	}
	if len(perr) > 0 {
		v.paperErrPct = sum(perr) / float64(len(perr))
	}
	if storm, clean := byName[cellCheriStorm], byName[cellCheriClean]; storm != nil && clean != nil {
		v.mttrMS = float64(storm.MTTRMeanNS) / 1e6
		v.mttrMaxMS = float64(storm.MTTRMaxNS) / 1e6
		if clean.SurvivorMinDone > 0 {
			v.blastRatio = float64(storm.SurvivorMinDone) / float64(clean.SurvivorMinDone)
			if base := byName[cellBaselineStorm]; base != nil {
				v.baselineBlastRatio = float64(base.SurvivorMinDone) / float64(clean.SurvivorMinDone)
			}
		}
	}
	return v
}

// checkVirtual applies the correctness checks a pass's virtual results
// must meet whatever the host did.
func checkVirtual(cells []cell, rs []cellResult, v virtSummary) []string {
	var problems []string
	for i, r := range rs {
		if r.Completed > r.Issued {
			problems = append(problems, fmt.Sprintf("%s: completed %d > issued %d", cells[i].name, r.Completed, r.Issued))
		}
		if cells[i].primary && r.Ops == 0 {
			problems = append(problems, fmt.Sprintf("%s: no work completed", cells[i].name))
		}
	}
	if v.blastRatio != 0 && v.blastRatio != 1 {
		problems = append(problems, fmt.Sprintf("cheri storm survivors did not match the clean run (ratio %.4f)", v.blastRatio))
	}
	return problems
}

// peakRSSMB reads the process's high-water resident set.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// runWorkload is one invocation: the untraced run that yields the
// end-to-end metrics, or the traced run that yields the per-layer ones.
func runWorkload(rc runConfig) (result, error) {
	core.SetParallelism(1)
	cells := rc.w.cells(rc.seed, rc.quick)
	if rc.trace {
		return runTraced(rc, cells)
	}
	minPasses := 2
	if rc.quick {
		minPasses = 1
	}
	m, err := measure(cells, testbed.ObsSpec{}, rc.seconds, minPasses)
	if err != nil {
		return result{}, err
	}
	v := summarize(cells, m.lastPass.Cells)
	problems := checkVirtual(cells, m.lastPass.Cells, v)
	if m.recordsDisagreeAt >= 0 {
		problems = append(problems, fmt.Sprintf("pass %d's virtual results differ from pass 0's", m.recordsDisagreeAt))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	frames := m.lastPass.Counters["fstack.rx_frames"]
	res := result{
		Correct:   len(problems) == 0,
		Attempted: v.attempted * uint64(m.passes),
		Failed:    v.failed * uint64(m.passes),
		Metrics: map[string]metric{
			"wall_s":            {m.wallS / m.slowdown, "s"},
			"setup_s":           {m.setupS / m.slowdown, "s"},
			"host_ns_per_frame": {m.wallS / m.slowdown * 1e9 / float64(frames), "ns"},
			"mallocs_k":         {m.mallocs / 1e3, "k"},
			"peak_rss_mb":       {rss, "MB"},
			"ok_share":          {1 - float64(v.failed)/float64(v.attempted), "share"},
			"virt_ops_per_s":    {v.opsPerS, "1/s"},
		},
		detail: m.detail(rc, cells, v, problems),
	}
	return res, nil
}

func (m measured) detail(rc runConfig, cells []cell, v virtSummary, problems []string) *runDetail {
	d := &runDetail{Seed: rc.seed, Passes: m.passes, Record: m.record,
		RunS: m.runPerPass, SetupS: m.setupPerPass, Slowdown: m.slowdown, Problems: problems}
	for _, c := range cells {
		d.CellNames = append(d.CellNames, c.name)
	}
	if v.lat != nil {
		d.LatSamples = v.lat.LatSamples
	}
	return d
}

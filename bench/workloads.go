package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fstack"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// A workload is a fixed list of cells. A cell is one bed build (timed
// as set-up) and one scenario run on it (timed as the run); both go
// through the exported core entry points only. One pass runs every cell
// once; a run repeats passes for the measuring time it was given.
type workload struct {
	// name is the workload's name in BENCHMARK.json, which also records
	// why it was chosen.
	name string
	// cells generates the workload's cells. seed overrides every netem
	// seed (0 keeps each scenario's built-in seed); quick shortens the
	// virtual durations for the self-test.
	cells func(seed uint64, quick bool) []cell
	// refCells, when set, are reference cells only the traced run adds,
	// for its differentials.
	refCells func(quick bool) []cell
}

type cell struct {
	name string
	// primary cells contribute to ops, latency and failures; the others
	// are references the derived figures (blast ratio) compare against.
	primary bool
	// obs marks cells whose config accepts an ObsSpec, so the traced
	// run can measure the observability overhead on them.
	obs bool
	// build wires the cell's bed and returns it with the run to time.
	build func(obs testbed.ObsSpec) (*testbed.Bed, func() (cellResult, error), error)
}

// cellResult is what one cell's run measured in virtual time. Every
// field is deterministic per seed: the record is hashed to check that
// repeated, traced and instrumented runs agree.
type cellResult struct {
	// Ops is the cell's completed units of work (one MSS of delivered
	// payload for bulk flows, one short flow for churn, one request for
	// the RPC cells) over VirtNS of measured virtual time.
	Ops    uint64
	VirtNS int64
	// Attempted / Failed count operations offered and operations that
	// errored, were refused or were never completed.
	Attempted uint64
	Failed    uint64

	// Mbps are a bulk cell's endpoint goodput figures; Paper the
	// published figure beside each (0 where the paper has none).
	Mbps  []float64 `json:",omitempty"`
	Paper []float64 `json:",omitempty"`

	// Per-op virtual latency, where the cell measures one.
	P50NS, P99NS, P999NS int64
	LatSamples           uint64

	// Application-plane counters.
	Issued, Completed, Deferred, Timeouts, AppFailed, Lost, Resets uint64

	// HeapPerConn is Scenario 8's retained bytes per idle connection.
	HeapPerConn float64
	// Fault-storm figures.
	MTTRMeanNS, MTTRMaxNS int64
	SurvivorMinDone       uint64
}

// mss is the payload one full-size TCP frame carries; bulk cells count
// their work in these.
const mss = fstack.MaxSegData

func mixSeed(seed uint64, salt uint64) int64 {
	if seed == 0 {
		return 0 // the scenario's built-in seed
	}
	// splitmix64 step: distinct, non-zero seeds per cell.
	z := seed + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

func bulkResult(mbps, paper []float64, virtNS int64) cellResult {
	r := cellResult{VirtNS: int64(len(mbps)) * virtNS, Mbps: mbps, Paper: paper}
	for _, m := range mbps {
		r.Ops += uint64(m * 1e6 / 8 * float64(virtNS) / 1e9 / mss)
	}
	// One closed-loop flow per endpoint; a flow that errors fails the
	// whole cell, so every flow that reports here completed.
	r.Attempted = uint64(len(mbps))
	return r
}

// pairCell is one (topology, direction) Table II style measurement.
func pairCell(name string, build func(clk *sim.VClock) (*core.Setup, error), dir core.Direction, paper []float64) cell {
	return cell{name: name, primary: true, build: func(testbed.ObsSpec) (*testbed.Bed, func() (cellResult, error), error) {
		s, err := build(sim.NewVClock())
		if err != nil {
			return nil, nil, err
		}
		return s, func() (cellResult, error) {
			res, err := core.BandwidthPair(s, dir)
			if err != nil {
				return cellResult{}, err
			}
			mbps := make([]float64, len(res))
			for i, r := range res {
				mbps[i] = r.Mbps
			}
			return bulkResult(mbps, paper, 1e9), nil
		}, nil
	}}
}

func table2Cells(_ uint64, quick bool) []cell {
	paperCol := func(block int, dir core.Direction) []float64 {
		var out []float64
		for _, p := range core.Table2Spec[block].Paper {
			out = append(out, p[dir])
		}
		return out
	}
	t2 := func(block int, dir core.Direction) cell {
		spec := core.Table2Spec[block]
		return pairCell(fmt.Sprintf("%s %v", spec.Name, dir), spec.Build, dir, paperCol(block, dir))
	}
	s3 := pairCell("Scenario 3 Client", func(clk *sim.VClock) (*core.Setup, error) { return core.NewScenario3(clk) },
		core.LocalIsClient, []float64{0})
	if quick {
		return []cell{t2(4, core.LocalIsClient), s3}
	}
	return []cell{t2(1, core.LocalIsServer), t2(4, core.LocalIsClient), s3}
}

// noFade is a loss rate that never fires. Scenario 7 installs its
// default fade process only on a link with no loss configured at all;
// this keeps its long-RTT cells on slow-start overshoot and queue
// overflow alone, which no seed changes. At a 100 ms RTT one fade early
// in slow start decides the whole run, so a seeded fade there would make
// the workload's size a lottery; the short-RTT cells carry the seeded
// loss instead, where many loss events average out.
const noFade = 1e-12

// shortQueue bounds the short-RTT cells' bottleneck queue to ~10 ms at
// 100 Mbit/s, so their round trip stays short (the scenarios' default
// queues add up to 250 ms of standing delay) and each of the ~50 seeded
// loss events per run costs little: the cells' goodput then varies by
// under 1 % from seed to seed.
const shortQueue = 128 << 10

func wanCells(seed uint64, quick bool) []cell {
	s7dur, s5dur := int64(6e9), int64(5e9)
	if quick {
		s7dur, s5dur = 1e9, 1e9
	}
	s7 := func(i int, cc string, link netem.Config) cell {
		link.Seed = mixSeed(seed, uint64(i))
		cfg := core.Scenario7Config{CapMode: true, Congestion: cc, Link: link}
		name := fmt.Sprintf("s7 %s %dms", cc, link.DelayNS/1e6)
		return cell{name: name, primary: true, build: func(testbed.ObsSpec) (*testbed.Bed, func() (cellResult, error), error) {
			s, err := core.NewScenario7(sim.NewVClock(), cfg)
			if err != nil {
				return nil, nil, err
			}
			return s.Bed, func() (cellResult, error) {
				r, err := core.Scenario7Bandwidth(s, s7dur)
				return bulkResult([]float64{r.Mbps}, []float64{0}, s7dur), err
			}, nil
		}}
	}
	s5 := cell{name: "s5 cubic burst 1ms", primary: true, obs: true,
		build: func(obs testbed.ObsSpec) (*testbed.Bed, func() (cellResult, error), error) {
			cfg := core.Scenario5Config{CapMode: true, Modern: true, Congestion: fstack.CCCubic, Obs: obs,
				Link: netem.Config{GEBadProb: 3e-4, GERecoverProb: 0.2, DelayNS: 1e6, RateBps: 100e6,
					QueueBytes: shortQueue, Seed: mixSeed(seed, 3)}}
			s, err := core.NewScenario5(sim.NewVClock(), cfg)
			if err != nil {
				return nil, nil, err
			}
			return s.Bed, func() (cellResult, error) {
				r, err := core.Scenario5Bandwidth(s, s5dur)
				return bulkResult([]float64{r.Mbps}, []float64{0}, s5dur), err
			}, nil
		}}
	return []cell{
		s7(0, fstack.CCCubic, netem.Config{DelayNS: 50e6, LossRate: noFade}),
		s7(1, fstack.CCReno, netem.Config{DelayNS: 50e6, LossRate: noFade}),
		s7(2, fstack.CCCubic, netem.Config{DelayNS: 1e6, QueueBytes: shortQueue, GEBadProb: 1e-3, GERecoverProb: 0.5}),
		s5,
	}
}

// churnConfig is the churn workload's Scenario 8 point; the traced run
// re-uses it with Conns 0 for the idle-population differential.
func churnConfig(quick bool) core.Scenario8Config {
	cfg := core.Scenario8Config{Shards: 4, CapMode: true, Conns: 25000, Rate: 50000, DurationNS: 200e6}
	if quick {
		cfg.Conns, cfg.DurationNS = 2000, 20e6
	}
	return cfg
}

func churnCell(cfg core.Scenario8Config) cell {
	return cell{name: fmt.Sprintf("s8 %d idle", cfg.Conns), primary: true,
		build: func(testbed.ObsSpec) (*testbed.Bed, func() (cellResult, error), error) {
			s, err := core.NewScenario8(sim.NewVClock(), cfg)
			if err != nil {
				return nil, nil, err
			}
			return s, func() (cellResult, error) {
				r, err := core.Scenario8Churn(s, cfg)
				return cellResult{
					Ops: r.Completed, VirtNS: r.ChurnNS,
					Attempted: uint64(cfg.Conns) + r.Completed + r.Deferred, Failed: r.Deferred,
					P50NS: r.ConnectP50NS, P99NS: r.ConnectP99NS, LatSamples: r.Completed,
					Issued: r.Completed + r.Deferred, Completed: r.Completed, Deferred: r.Deferred,
					HeapPerConn: r.HeapPerConn,
				}, err
			}, nil
		}}
}

func churnCells(_ uint64, quick bool) []cell { return []cell{churnCell(churnConfig(quick))} }

// cellNoIdle is the same storm with nobody held idle: what the traced
// run compares against for churn.idle_pop_cost_pct.
const cellNoIdle = "s8 0 idle"

func churnRefCells(quick bool) []cell {
	cfg := churnConfig(quick)
	cfg.Conns = 0
	return []cell{churnCell(cfg)}
}

func rpcCell(cfg core.Scenario9Config) cell {
	return cell{name: "s9 " + cfg.Proto, primary: true, obs: true,
		build: func(obs testbed.ObsSpec) (*testbed.Bed, func() (cellResult, error), error) {
			cfg := cfg
			cfg.Obs = obs
			s, err := core.NewScenario9(sim.NewVClock(), cfg)
			if err != nil {
				return nil, nil, err
			}
			return s, func() (cellResult, error) {
				r, err := core.Scenario9Run(s, cfg)
				return cellResult{
					Ops: r.Completed, VirtNS: r.RunNS,
					Attempted: r.Issued + r.Deferred,
					Failed:    r.Deferred + r.Failed + (r.Issued - r.Completed),
					P50NS:     r.P50NS, P99NS: r.P99NS, P999NS: r.P999NS, LatSamples: r.Completed,
					Issued: r.Issued, Completed: r.Completed, Deferred: r.Deferred,
					Timeouts: r.Timeouts, AppFailed: r.Failed,
				}, err
			}, nil
		}}
}

func httpCells(seed uint64, quick bool) []cell {
	cfg := core.Scenario9Config{Proto: "http", Shards: 2, CapMode: true, Rate: 20000, Conns: 64,
		RespBytes: 1200, DurationNS: 2e9,
		Link: netem.Config{LossRate: 0.005, DelayNS: 1e6, Seed: mixSeed(seed, 0)}}
	if quick {
		cfg.DurationNS = 300e6
	}
	return []cell{rpcCell(cfg)}
}

func dnsCells(seed uint64, quick bool) []cell {
	cfg := core.Scenario9Config{Proto: "dns", Shards: 2, CapMode: true, Rate: 40000, Conns: 256,
		DurationNS: 3e9,
		Link:       netem.Config{LossRate: 0.002, DelayNS: 250e3, Seed: mixSeed(seed, 0)}}
	if quick {
		cfg.DurationNS = 300e6
	}
	return []cell{rpcCell(cfg)}
}

func faultCell(name string, primary bool, cfg core.Scenario10Config) cell {
	return cell{name: name, primary: primary, obs: true,
		build: func(obs testbed.ObsSpec) (*testbed.Bed, func() (cellResult, error), error) {
			cfg := cfg
			cfg.Obs = obs
			s, err := core.NewScenario10(sim.NewVClock(), cfg)
			if err != nil {
				return nil, nil, err
			}
			return s, func() (cellResult, error) {
				r, err := core.Scenario10Run(s, cfg)
				// Each fault costs the faulted shard its outstanding
				// requests (one per keep-alive connection; every shard in
				// the fate-sharing baseline). Those are the storm's
				// expected result, not failed operations; anything lost
				// beyond them is.
				expected := uint64(r.Faults * cfg.Conns)
				if !cfg.CapMode {
					expected *= uint64(cfg.Shards)
				}
				var failed uint64
				if r.Lost > expected {
					failed = r.Lost - expected
				}
				return cellResult{
					Ops: r.Completed, VirtNS: r.RunNS,
					Attempted: r.Issued, Failed: failed,
					P50NS: r.P50NS, P99NS: r.P99NS, LatSamples: r.Completed,
					Issued: r.Issued, Completed: r.Completed, Lost: r.Lost, Resets: r.Resets,
					MTTRMeanNS: r.MTTRMeanNS, MTTRMaxNS: r.MTTRMaxNS,
					SurvivorMinDone: r.OtherMinDone,
				}, err
			}, nil
		}}
}

// Fault-storm cell names; the summary looks the references up by them.
const (
	cellCheriStorm    = "s10 cheri storm"
	cellCheriClean    = "s10 cheri clean"
	cellBaselineStorm = "s10 baseline storm"
)

func stormConfig(quick bool) core.Scenario10Config {
	cfg := core.Scenario10Config{Shards: 4, CapMode: true, Faults: 3, MTBFNS: 40e6, Conns: 4, DurationNS: 300e6}
	if quick {
		cfg.Faults, cfg.MTBFNS, cfg.DurationNS = 1, 20e6, 100e6
	}
	return cfg
}

func faultCells(_ uint64, quick bool) []cell {
	storm := stormConfig(quick)
	clean := storm
	clean.Faults, clean.MTBFNS = 0, 0
	return []cell{faultCell(cellCheriStorm, true, storm), faultCell(cellCheriClean, false, clean)}
}

// faultRefCells is the fate-sharing Baseline storm the traced run adds
// for faultplane.baseline_blast_ratio.
func faultRefCells(quick bool) []cell {
	cfg := stormConfig(quick)
	cfg.CapMode = false
	return []cell{faultCell(cellBaselineStorm, false, cfg)}
}

var workloads = []workload{
	{"table2_gated", table2Cells, nil},
	{"wan_recovery", wanCells, nil},
	{"churn_25k", churnCells, churnRefCells},
	{"rpc_http", httpCells, nil},
	{"rpc_dns", dnsCells, nil},
	{"fault_storm", faultCells, faultRefCells},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

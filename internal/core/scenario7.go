package core

import (
	"fmt"
	"strings"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/testbed"
)

// Scenario 7 — WAN utilization vs congestion control. Scenario 5
// showed that with SACK and window scaling in place the recovery
// machinery is no longer the bottleneck on high-BDP paths: on the
// 100 Mbit/s × 100 ms RTT link the modern stack still idles at ~40%
// of the bottleneck, because Reno grows the window one MSS per RTT —
// at 100 ms that is ~12 KB/s² of acceleration, and every loss event
// throws away tens of seconds of climbing. This scenario swaps the
// congestion control (TCPTuning.Congestion) while holding everything
// else fixed: one flow, modern tuning on both ends, a seeded
// 100 Mbit/s bottleneck with a deep queue and sparse short loss
// fades, the one-way delay swept across the paper's BDP ladder
// (10/50/100/200 ms RTT). CUBIC's cubic-in-time growth (RFC 8312) is
// RTT-independent, and its 0.7× decrease plus the queue's headroom
// keeps the pipe covered across fades Reno's halvings cannot absorb —
// the table reads off exactly what Reno leaves on the table and CUBIC
// recovers, in Baseline and capability mode.

const (
	// s7RateBps is the WAN bottleneck under study.
	s7RateBps = 100e6
	// s7DelayNS is the default one-way propagation delay (50 ms: the
	// 100 ms RTT point the acceptance gate pins).
	s7DelayNS = int64(50e6)
	// s7QueueBytes is a deep (bufferbloat-era) bottleneck queue, ~2.4×
	// the 100 ms path's 1.25 MB BDP. The depth is load-bearing for the
	// comparison: after a loss event CUBIC's 0.7× window cut usually
	// still covers the BDP (the queue just drains a little), while
	// Reno's 0.5× cuts compound below it — and Reno then needs one
	// RTT per MSS to climb back, ~100 s at this BDP.
	s7QueueBytes = 3 << 20
	// s7GEBadProb / s7GERecoverProb: short seeded Gilbert–Elliott
	// fades (~2 wire slots ≈ 2-3 frames, a few seconds apart). The
	// fades are the periodic loss events whose *spacing* exposes the
	// growth-rate difference: several fall inside every run, so the
	// figure measures the climb between events, not one recovery.
	s7GEBadProb     = 3e-5
	s7GERecoverProb = 0.5
	// s7Seed makes every impairment stream reproducible.
	s7Seed = 2031

	// Access ports, RTO floor, modern-tuning knobs and environment
	// sizing are Scenario 5's (wanBox): one WAN layout, two questions.

	s7Port = uint16(5701)
)

// Scenario7Config parameterizes the CC-comparison testbed.
type Scenario7Config struct {
	// CapMode runs the local stack inside a cVM with capability DMA;
	// false is the Baseline process layout.
	CapMode bool
	// Congestion selects the sender's congestion controller —
	// fstack.CCReno or fstack.CCCubic ("" = reno). Both ends share the
	// tuning; only the data sender's controller matters.
	Congestion string
	// Link is the impairment pipeline, applied symmetrically. Zero
	// values get the Scenario 7 defaults for rate, queue, loss and
	// seed; pass explicit fields to sweep delay.
	Link netem.Config
}

// Setup7 is a wired Scenario 7 topology.
type Setup7 struct {
	*testbed.Bed
	Cfg Scenario7Config
}

// NewScenario7 builds the WAN layout: local box (process or cVM) and
// one link partner, joined by the impairment pipeline, with the
// selected congestion controller on both stacks.
func NewScenario7(clk hostos.Clock, cfg Scenario7Config) (*Setup7, error) {
	if !fstack.ValidCongestion(cfg.Congestion) {
		return nil, fmt.Errorf("core: scenario 7: unknown congestion control %q (have %v)",
			cfg.Congestion, fstack.CongestionAlgos())
	}
	if cfg.Link.RateBps == 0 {
		cfg.Link.RateBps = s7RateBps
	}
	if cfg.Link.QueueBytes == 0 {
		cfg.Link.QueueBytes = s7QueueBytes
	}
	if cfg.Link.DelayNS == 0 {
		cfg.Link.DelayNS = s7DelayNS
	}
	if cfg.Link.Seed == 0 {
		cfg.Link.Seed = s7Seed
	}
	if cfg.Link.LossRate == 0 && cfg.Link.GEBadProb == 0 {
		cfg.Link.GEBadProb = s7GEBadProb
		cfg.Link.GERecoverProb = s7GERecoverProb
	}
	tuning := modernTuning(s5BufBytes, s5WScale, cfg.Congestion)
	bed, err := wanBox(cfg.CapMode, tuning, cfg.Link, testbed.ObsSpec{}).build(clk)
	if err != nil {
		return nil, err
	}
	return &Setup7{Bed: bed, Cfg: cfg}, nil
}

// Scenario7Result is one measured (RTT, congestion control) point.
// Goodput is measured at the receiver behind the impaired path.
type Scenario7Result struct {
	CapMode    bool
	Congestion string
	Link       netem.Config
	Mbps       float64
	// Stats are the sending stack's counters.
	Stats fstack.StackStats
}

// RTTms is the path round-trip time implied by the link config.
func (r Scenario7Result) RTTms() float64 { return float64(2*r.Link.DelayNS) / 1e6 }

// Utilization is goodput as a fraction of the bottleneck rate.
func (r Scenario7Result) Utilization() float64 { return r.Mbps * 1e6 / r.Link.RateBps }

// ccName renders the effective controller name.
func ccName(cc string) string {
	if cc == "" {
		return fstack.CCReno
	}
	return cc
}

// Scenario7Bandwidth sends one flow through the impaired link for
// durationNS of virtual traffic time.
func Scenario7Bandwidth(s *Setup7, durationNS int64) (Scenario7Result, error) {
	link := s.Links[0]
	res := Scenario7Result{
		CapMode: s.Cfg.CapMode, Congestion: ccName(s.Cfg.Congestion), Link: link.Config(),
	}
	reps, err := runFlows(s.Bed, "scenario 7", wanUpload(s.Bed, s7Port), durationNS, wanBudget(durationNS, res.Link.DelayNS))
	if err != nil {
		return res, err
	}
	res.Mbps = reps[0].recv.Mbps()
	res.Stats = s.Envs[0].Stk.Stats()
	return res, nil
}

// DefaultScenario7Duration is the per-measurement traffic time: long
// enough that several fade epochs fit and CUBIC's ~K-second cubic
// epochs (K ≈ 9 s at this BDP) can play out, so the growth slopes —
// not one recovery — decide the figure.
const DefaultScenario7Duration = int64(30_000e6)

// RunScenario7 measures one configuration on a fresh virtual testbed.
func RunScenario7(cfg Scenario7Config, durationNS int64) (Scenario7Result, error) {
	return fresh(NewScenario7, cfg, func(s *Setup7) (Scenario7Result, error) {
		return Scenario7Bandwidth(s, durationNS)
	})
}

// RunScenario7RTTSweep measures goodput vs RTT: for every delay point,
// each congestion controller in ccs, in both Baseline and capability
// mode, at equal seeded link settings.
func RunScenario7RTTSweep(delaysNS []int64, ccs []string, rateBps float64, durationNS int64) ([]Scenario7Result, error) {
	var cells []Scenario7Config
	for _, d := range delaysNS {
		for _, capMode := range []bool{false, true} {
			for _, cc := range ccs {
				cells = append(cells, Scenario7Config{
					CapMode: capMode, Congestion: cc,
					Link: netem.Config{DelayNS: d, RateBps: rateBps},
				})
			}
		}
	}
	return sweep(cells, func(cfg Scenario7Config) (Scenario7Result, error) {
		return RunScenario7(cfg, durationNS)
	}, func(cfg Scenario7Config) string {
		return fmt.Sprintf("delay=%dms %s cc=%s", cfg.Link.DelayNS/1e6, modeName(cfg.CapMode), ccName(cfg.Congestion))
	})
}

// FormatScenario7 renders a sweep with per-row utilization and, where
// both controllers ran the same point, CUBIC's gain over Reno.
func FormatScenario7(results []Scenario7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO 7 — WAN utilization vs congestion control\n")
	if len(results) > 0 {
		l := results[0].Link
		loss, kind := lossOf(l)
		fmt.Fprintf(&b, "(%.0f Mbit/s bottleneck, %.1f MiB queue, %.3f%% %s loss, one flow, SACK+WS on)\n",
			l.RateBps/1e6, float64(l.QueueBytes)/(1<<20), loss*100, kind)
	}
	// Reno baselines per (mode, RTT) for the gain column.
	reno := map[string]float64{}
	key := func(r Scenario7Result) string {
		return fmt.Sprintf("%v/%.0f", r.CapMode, r.RTTms())
	}
	for _, r := range results {
		if r.Congestion == fstack.CCReno {
			reno[key(r)] = r.Mbps
		}
	}
	fmt.Fprintf(&b, "  %-9s %-6s %8s %10s %6s %8s  %s\n",
		"Mode", "CC", "RTT(ms)", "Mbit/s", "Util", "vs reno", "recovery breakdown")
	for _, r := range results {
		gain := "-"
		if base := reno[key(r)]; base > 0 && r.Congestion != fstack.CCReno {
			gain = fmt.Sprintf("%.2fx", r.Mbps/base)
		}
		fmt.Fprintf(&b, "  %-9s %-6s %8.0f %10.1f %5.0f%% %8s  %s\n",
			modeName(r.CapMode), r.Congestion, r.RTTms(), r.Mbps, r.Utilization()*100, gain, r.Stats.RecoverySummary())
	}
	return b.String()
}

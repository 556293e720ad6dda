package core

import (
	"fmt"
	"strings"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/testbed"
)

// Scenario 5 — the lossy high-BDP WAN. Every earlier scenario runs over
// a perfect point-to-point cable, so the stack's recovery machinery and
// window limits were never the binding constraint. Here the cable is
// replaced by a netem.Link — a rate-limited bottleneck with delay,
// seeded random or bursty loss and a bounded queue — and the local box
// (Baseline process or capability-mode cVM, as in Table II) drives one
// iperf flow through it. The measurement compares the paper's stack
// ("go-back-N": no SACK, 64 KiB windows) against the modern tuning
// (RFC 2018 SACK + RFC 7323 window scaling) at equal link settings, so
// the recovery upgrade and the capability overhead can be read off the
// same table.

const (
	// s5LineRate is both ports' access-line rate; the netem bottleneck
	// below it is what shapes the path.
	s5LineRate = 1e9
	// s5RateBps is the default WAN bottleneck.
	s5RateBps = 100e6
	// s5QueueBytes is the bottleneck queue: roughly one BDP at the
	// default rate over a transcontinental 100 ms RTT, the classic
	// router-sizing rule.
	s5QueueBytes = 1 << 20
	// s5Seed makes every impairment stream reproducible.
	s5Seed = 2025

	// s5RTOMin is the retransmission-timer floor on both ends —
	// FreeBSD's 200 ms on WAN-scale RTTs (the simulator default of
	// 2 ms would fire spuriously on every queue-induced RTT bump).
	s5RTOMin = int64(200e6)

	// Modern-tuning knobs: 4 MiB socket buffers cover the default
	// 100 Mbit/s x 100 ms BDP (1.25 MB) with slow-start overshoot to
	// spare (and Scenario 7's 200 ms RTT point: BDP 2.5 MB plus queue);
	// shift 7 advertises up to 8 MiB through the 16-bit window field.
	s5BufBytes = 4 << 20
	s5WScale   = 7

	// Environment sizing: two 4 MiB buffers per connection plus the
	// mbuf pool must fit the segment.
	s5SegSize  = 24 << 20
	s5PoolBufs = 3072

	s5Port = uint16(5401)
)

// Scenario5Config parameterizes the WAN testbed.
type Scenario5Config struct {
	// CapMode runs the local stack inside a cVM with capability DMA;
	// false is the Baseline process layout.
	CapMode bool
	// Modern enables SACK + window scaling (+ BDP-sized buffers) on
	// both ends; false reproduces the paper's stack (the A/B knob).
	Modern bool
	// Congestion selects the modern stack's congestion controller
	// (fstack.CCReno / fstack.CCCubic; "" = reno). Ignored — like the
	// rest of the tuning — when Modern is false.
	Congestion string
	// Link is the impairment pipeline, applied symmetrically. Zero
	// values get the Scenario 5 defaults for rate, queue and seed —
	// pass explicit fields to sweep loss and delay.
	Link netem.Config
	// Obs selects the observability instruments wired into the bed.
	// The zero value keeps everything off and the run's goldens
	// byte-identical.
	Obs testbed.ObsSpec
}

// Setup5 is a wired Scenario 5 topology.
type Setup5 struct {
	*testbed.Bed
	Cfg Scenario5Config
}

// wanBox is the layout Scenarios 5 and 7 share: the local box (process
// or cVM) and one link partner on 1 GbE access ports, joined by a
// symmetric impairment pipeline, the same stack tuning (zero = the
// paper's stack) and WAN-scale RTO floor on both ends.
func wanBox(capMode bool, tuning fstack.TCPTuning, link netem.Config, obs testbed.ObsSpec) boxSpec {
	tuning.RTOMinNS = s5RTOMin
	stack := testbed.StackSpec{Tuning: &tuning}
	return boxSpec{
		capMode: capMode, lineRate: s5LineRate,
		segBytes: s5SegSize, poolBufs: s5PoolBufs,
		stack: stack, peerStack: stack,
		link: testbed.SymmetricLink(link), obs: obs,
	}
}

// NewScenario5 builds the WAN layout: local box (process or cVM) and
// one link partner, joined by the impairment pipeline.
func NewScenario5(clk hostos.Clock, cfg Scenario5Config) (*Setup5, error) {
	if cfg.Link.RateBps == 0 {
		cfg.Link.RateBps = s5RateBps
	}
	if cfg.Link.QueueBytes == 0 {
		cfg.Link.QueueBytes = s5QueueBytes
	}
	if cfg.Link.Seed == 0 {
		cfg.Link.Seed = s5Seed
	}
	var tuning fstack.TCPTuning
	if cfg.Modern {
		tuning = modernTuning(s5BufBytes, s5WScale, cfg.Congestion)
	}
	bed, err := wanBox(cfg.CapMode, tuning, cfg.Link, cfg.Obs).build(clk)
	if err != nil {
		return nil, err
	}
	return &Setup5{Bed: bed, Cfg: cfg}, nil
}

// Scenario5Result is one measured WAN point. Goodput is measured at
// the receiver (the far end of the impaired path), so sender-side
// buffering cannot inflate it.
type Scenario5Result struct {
	CapMode bool
	Modern  bool
	Link    netem.Config
	Mbps    float64
	// Stats are the local (sending) stack's counters — the retransmit
	// breakdown is the recovery story of the run.
	Stats fstack.StackStats
	// Obs carries the run's observability instruments (flight recorder,
	// metrics timeseries, latency histograms); nil when the config's
	// ObsSpec was zero.
	Obs *obs.Obs
}

// RTTms is the path round-trip time implied by the link config.
func (r Scenario5Result) RTTms() float64 { return float64(2*r.Link.DelayNS) / 1e6 }

// Scenario5Bandwidth sends one flow from the local box through the
// impaired link for durationNS of virtual traffic time.
func Scenario5Bandwidth(s *Setup5, durationNS int64) (Scenario5Result, error) {
	link := s.Links[0]
	res := Scenario5Result{CapMode: s.Cfg.CapMode, Modern: s.Cfg.Modern, Link: link.Config()}
	reps, err := runFlows(s.Bed, "scenario 5", wanUpload(s.Bed, s5Port), durationNS, wanBudget(durationNS, res.Link.DelayNS))
	if err != nil {
		return res, err
	}
	res.Mbps = reps[0].recv.Mbps()
	res.Stats = s.Envs[0].Stk.Stats()
	res.Obs = s.Obs
	return res, nil
}

// DefaultScenario5Duration is the per-measurement traffic time.
const DefaultScenario5Duration = int64(1_000e6)

// RunScenario5 measures one configuration on a fresh virtual testbed.
func RunScenario5(cfg Scenario5Config, durationNS int64) (Scenario5Result, error) {
	return fresh(NewScenario5, cfg, func(s *Setup5) (Scenario5Result, error) {
		return Scenario5Bandwidth(s, durationNS)
	})
}

// RunScenario5LossSweep measures goodput vs loss rate: for every loss
// point, go-back-N vs SACK in both Baseline and capability mode, at
// equal link settings. An optional SweepObs instruments every point's
// bed and exports the traces/timeseries per point. Cells run on the
// host worker pool (Parallelism); results keep sweep order.
func RunScenario5LossSweep(losses []float64, delayNS int64, rateBps float64, cc string, durationNS int64, obsOpt ...SweepObs) ([]Scenario5Result, error) {
	var links []netem.Config
	for _, loss := range losses {
		links = append(links, netem.Config{LossRate: loss, DelayNS: delayNS, RateBps: rateBps})
	}
	return sweepScenario5(links, cc, durationNS, obsOpt)
}

// RunScenario5BDPSweep measures goodput vs path BDP (the one-way delay
// swept at a fixed bottleneck rate), go-back-N vs SACK+window-scaling,
// in both Baseline and capability mode.
func RunScenario5BDPSweep(delaysNS []int64, lossRate float64, rateBps float64, cc string, durationNS int64, obsOpt ...SweepObs) ([]Scenario5Result, error) {
	var links []netem.Config
	for _, d := range delaysNS {
		links = append(links, netem.Config{LossRate: lossRate, DelayNS: d, RateBps: rateBps})
	}
	return sweepScenario5(links, cc, durationNS, obsOpt)
}

// sweepScenario5 runs, for every link, both stacks in both modes.
func sweepScenario5(links []netem.Config, cc string, durationNS int64, obsOpt []SweepObs) ([]Scenario5Result, error) {
	var cells []Scenario5Config
	for _, link := range links {
		for _, capMode := range []bool{false, true} {
			for _, modern := range []bool{false, true} {
				cells = append(cells, Scenario5Config{CapMode: capMode, Modern: modern, Congestion: cc, Link: link})
			}
		}
	}
	return sweepObserved(cells, obsOpt, scenario5Label,
		func(cfg Scenario5Config, spec testbed.ObsSpec) (Scenario5Result, error) {
			cfg.Obs = spec
			return RunScenario5(cfg, durationNS)
		},
		func(r Scenario5Result) *obs.Obs { return r.Obs })
}

// scenario5Label names one sweep point in errors and export filenames:
// mode_recovery_loss_rtt, e.g. "baseline_sack_loss0.25_rtt20ms".
func scenario5Label(cfg Scenario5Config) string {
	rec := "gbn"
	if cfg.Modern {
		rec = "sack"
	}
	return fmt.Sprintf("%s_%s_loss%.2f_rtt%dms", modeName(cfg.CapMode), rec, cfg.Link.LossRate*100, 2*cfg.Link.DelayNS/1e6)
}

// FormatScenario5 renders a sweep with the recovery breakdown beside
// every goodput figure.
func FormatScenario5(title string, results []Scenario5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO 5 — %s\n", title)
	fmt.Fprintf(&b, "  %-9s %-9s %7s %8s %9s %9s  %s\n",
		"Mode", "Recovery", "Loss%", "RTT(ms)", "BDP(KiB)", "Mbit/s", "recovery breakdown")
	for _, r := range results {
		bdpKiB := r.Link.RateBps / 8 * float64(2*r.Link.DelayNS) / 1e9 / 1024
		fmt.Fprintf(&b, "  %-9s %-9s %7.2f %8.0f %9.0f %9.1f  %s\n",
			modeName(r.CapMode), recoveryName(r.Modern), r.Link.LossRate*100, r.RTTms(), bdpKiB, r.Mbps, r.Stats.RecoverySummary())
		// Latency percentiles ride under the row they belong to — only
		// when the run carried histograms, so un-instrumented sweeps
		// (and the pinned goldens) render byte-identically.
		if r.Obs != nil && r.Obs.Datapath != nil {
			fmt.Fprintf(&b, "  %32s datapath %v | rtt %v\n", "", r.Obs.Datapath, r.Obs.RTT)
		}
	}
	return b.String()
}

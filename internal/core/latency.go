package core

import (
	"fmt"
	"slices"

	"repro/internal/app"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// FFWriteConfig parameterizes the ff_write() latency experiments of
// Figs. 4-6. The paper measures 1 million iterations; `cherinet` exposes
// the count.
type FFWriteConfig struct {
	// Iterations is the number of timed ff_write calls.
	Iterations int
	// IntervalNS spaces consecutive timed writes ("we increased the
	// interval between two consecutive ff_write", §IV).
	IntervalNS int64
	// Payload is the ff_write byte count (one MSS of data by default).
	Payload int
}

// LatencySet is one box of the Figs. 4-6 box plots.
type LatencySet struct {
	Label   string
	Samples []int64 // ns per ff_write, unfiltered (IQR happens in stats)
}

// latPort is the first TCP port the probes' sinks listen on.
const latPort = uint16(5301)

// ffSetupBudget bounds the legs before the timed one: handshakes on a
// wire, and the hammer filling one socket buffer.
const ffSetupBudget = 50e6

// ffCell is one bed of a timed ff_write figure: a layout, the boxes its
// probes fill — one per application site, in Bed.AppSites order — and
// whether the last site hammers instead (the contended Scenario 2).
type ffCell struct {
	what   string
	build  func(hostos.Clock) (*Setup, error)
	labels []string
	hammer bool
}

// ffWriteRun times cfg.Iterations ff_write calls from every site at once
// — the last one hammering instead, when asked — each toward a byte sink
// on the peer its site faces (site i, peer i modulo the peer count, like
// Table II's flows). The samples are virtual time as each site's own
// clock read sees it pass (sim's cost table, DESIGN.md §15).
func ffWriteRun(s *Setup, what string, cfg FFWriteConfig, sites []testbed.Site, labels []string, hammer bool) ([]LatencySet, error) {
	var eps []placed
	var probes []*app.WriteProbe
	var ham *app.Hammer
	for i, site := range sites {
		peer := s.Peers[i%len(s.Peers)]
		port := latPort + uint16(i/len(s.Peers))
		eps = append(eps, placed{"sink for " + site.Name, peer.Site(), newReceiver(port)})
		if hammer && i == len(sites)-1 {
			ham = app.NewHammer(peerIP(peer.Port), port, cfg.Payload)
			eps = append(eps, placed{"hammer", site, ham})
			continue
		}
		p := app.NewWriteProbe(peerIP(peer.Port), port, cfg.Iterations, cfg.IntervalNS, cfg.Payload, site.Now)
		probes = append(probes, p)
		eps = append(eps, placed{"probe " + site.Name, site, p})
	}
	phases := []phase{{name: "connect", budgetNS: ffSetupBudget, done: func() bool {
		for _, p := range probes {
			if !p.Connected() {
				return false
			}
		}
		return true
	}}}
	if ham != nil {
		// The probes sit connected and silent while the hammer fills its
		// socket: every sample is taken with it standing on the stack, or
		// the run fails here rather than report an uncontended box.
		phases = append(phases, phase{name: "saturate", budgetNS: ffSetupBudget,
			start: func(int64) { ham.Start() }, done: ham.Saturating})
	}
	phases = append(phases, phase{name: "timed",
		// A sample needs room in the socket: under the hammer the probe's
		// flow gets its share of the line, not its interval.
		budgetNS: int64(cfg.Iterations)*(cfg.IntervalNS+100_000) + 1_000e6,
		start: func(now int64) {
			for _, p := range probes {
				p.Start(now)
			}
		},
		done: allDone(probes)})
	if err := measure(s, what, eps, phases...); err != nil {
		return nil, err
	}
	sets := make([]LatencySet, len(probes))
	for i, p := range probes {
		sets[i] = LatencySet{Label: labels[i], Samples: p.Samples()}
	}
	return sets, nil
}

// The five beds of Figs. 4-6 (the registry pairs them into figures), each
// named as errors name it.
var (
	ffBaselineDual   = ffCell{"baseline", NewBaselineDual, []string{"Baseline (cVM1)", "Baseline (cVM2)"}, false}
	ffScenario1      = ffCell{"scenario 1", NewScenario1, []string{"Scenario 1 (cVM1)", "Scenario 1 (cVM2)"}, false}
	ffBaselineSingle = ffCell{"baseline", NewBaselineSingle, []string{"Baseline"}, false}
	ffUncontended    = ffCell{"scenario 2 uncontended",
		func(clk hostos.Clock) (*Setup, error) { return NewScenario2(clk, 1) }, []string{"Scenario 2 (uncontended)"}, false}
	ffContended = ffCell{"scenario 2 contended",
		func(clk hostos.Clock) (*Setup, error) { return NewScenario2(clk, 2) }, []string{"Scenario 2 (contended)"}, true}
)

// measureFigure runs a figure's cells on the sweep pool and returns
// their boxes in cell order.
func measureFigure(cfg FFWriteConfig, cells ...ffCell) ([]LatencySet, error) {
	perCell, err := sweep(cells, func(c ffCell) ([]LatencySet, error) {
		s, err := c.build(sim.NewVClock())
		if err != nil {
			return nil, err
		}
		return ffWriteRun(s, "ff_write", cfg, s.AppSites(), c.labels, c.hammer)
	}, func(c ffCell) string { return c.what })
	return slices.Concat(perCell...), err
}

// FormatFFWrite renders one figure's boxes under its title, each after
// the paper's IQR outlier removal.
func FormatFFWrite(title string, sets []LatencySet) string {
	out := title + "\n"
	for _, s := range sets {
		out += fmt.Sprintf("  %-26s %v\n", s.Label, stats.CleanBox(s.Samples))
	}
	return out
}

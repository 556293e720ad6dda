package core

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/testbed"
)

// Scenario 8 — connection churn storm. Scenarios 4-7 measure the
// datapath: long flows, bytes per second. This scenario measures the
// connection plane the connscale work rebuilt: the timing wheel (no
// per-conn timer scans), the ready list (poll visits only conns with
// due work), the SYN cache (half-open handshakes cost a pooled entry,
// not a conn), the conn/socket arena (steady-state churn allocates
// nothing) and lazy socket buffers (an idle conn reserves no segment
// memory). The workload is the canonical front-end-box profile: a
// large population of idle connections held open while rate-paced
// short request flows churn — connect, one small write, close — with
// the client closing first so TIME_WAIT pressure lands on the client
// stack. Reported per point: achieved accepts/sec against the offered
// rate, connect-latency quantiles, and the idle population's segment
// and heap cost per connection, in Baseline and capability mode.

const (
	// The port is Scenario 4's fast multi-queue one, so the connection
	// plane — not the wire — is the variable under test.

	// s8Backlog is every listener's accept-queue bound, comfortably
	// above the client's handshake concurrency so the sweep measures
	// throughput, not configured-in drops.
	s8Backlog = 512
	// s8PreloadPort / s8ChurnPort are the two listen ranges.
	s8PreloadPort = uint16(5801)
	s8ChurnPort   = uint16(5901)

	// s8BufBytes sizes both socket buffers. Short 64-byte flows need
	// nothing more, and small rings keep the lazily-backed segment
	// footprint of the churn population bounded.
	s8BufBytes = 8 << 10
	// s8SynCache bounds each shard's half-open cache.
	s8SynCache = 4096

	// Environment sizing: the segment carries the mbuf pool plus the
	// lazily-backed buffers of the churn flows still open (a conn gives
	// its rings back to the segment on entering TIME_WAIT, so the ~rate
	// × 2MSL conns parked there on the client side hold none). Idle
	// preload conns never move data, so lazy buffers keep them out of
	// this budget entirely.
	s8SegSize  = 48 << 20
	s8PoolBufs = 3072
)

// Scenario8Config parameterizes the churn testbed.
type Scenario8Config struct {
	// Shards is the server-side stack shard / NIC queue-pair count.
	Shards int
	// CapMode runs the server stack inside a cVM with capability DMA.
	CapMode bool
	// Conns is the idle connection population established and held
	// before the churn phase.
	Conns int
	// Rate is the offered churn load, short flows per second.
	Rate float64
	// DurationNS is the churn phase's virtual length.
	DurationNS int64
}

// NewScenario8 builds the churn layout: a sharded server box (process
// or cVM) on a fast RSS port, one link partner as the load generator.
func NewScenario8(clk hostos.Clock, cfg Scenario8Config) (*testbed.Bed, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: scenario 8 needs at least one shard")
	}
	tuning := connTuning(false, s8BufBytes, s8SynCache)
	return boxSpec{
		name: "s8", capMode: cfg.CapMode,
		lineRate: s4LineRate, rxFifo: s4RxFifoBytes,
		segBytes: s8SegSize, poolBufs: s8PoolBufs,
		peerSeg: s8SegSize, peerPool: s8PoolBufs,
		stack:     testbed.StackSpec{Shards: cfg.Shards, RingSize: s4RingSize, Tuning: tuning},
		peerStack: testbed.StackSpec{Tuning: tuning},
	}.build(clk)
}

// Scenario8Result is one measured churn point.
type Scenario8Result struct {
	Shards  int
	CapMode bool
	Conns   int
	Rate    float64

	// Completed short flows and the churn phase's virtual length.
	Completed uint64
	ChurnNS   int64
	// Deferred counts pace slots the client could not offer because its
	// handshake-concurrency cap was already outstanding (overload).
	Deferred uint64
	// ConnectP50NS / ConnectP99NS are churn-flow connect latencies.
	ConnectP50NS int64
	ConnectP99NS int64
	// SegPerConn / HeapPerConn are the idle population's cost: server
	// segment bytes per conn (lazy buffers should hold this at zero)
	// and process heap bytes per conn (both endpoints of each pair live
	// in this process).
	SegPerConn  float64
	HeapPerConn float64
	// Stats are the server shards' aggregated counters.
	Stats fstack.StackStats
}

// AcceptsPerSec is the achieved short-flow completion rate.
func (r Scenario8Result) AcceptsPerSec() float64 {
	if r.ChurnNS <= 0 {
		return 0
	}
	return float64(r.Completed) / (float64(r.ChurnNS) / 1e9)
}

// Scenario8Churn drives the two-phase storm on a built bed: establish
// and hold the idle population (measuring its cost), then churn.
func Scenario8Churn(s *testbed.Bed, cfg Scenario8Config) (Scenario8Result, error) {
	res := Scenario8Result{Shards: cfg.Shards, CapMode: cfg.CapMode, Conns: cfg.Conns, Rate: cfg.Rate}

	// The listen-port spread per flow class (preload and churn): as many
	// ports as the preload's source ports need, and at least four, so
	// the varying client source ports scatter connections across the
	// RSS shards.
	ports := max(4, app.ChurnPorts(cfg.Conns))
	srv := app.NewChurnServer(fstack.IPv4Addr{}, s8PreloadPort, s8ChurnPort, ports, s8Backlog)
	cli, err := app.NewChurnClient(localIP(0), s8PreloadPort, s8ChurnPort, ports, cfg.Conns, cfg.Rate, cfg.DurationNS)
	if err != nil {
		return res, err
	}

	segBefore := s.Envs[0].Seg.Used()
	heapBefore := retainedBytes(s)
	err = measure(s, "scenario 8",
		[]placed{{"client", s.Peers[0].Site(), cli}, {"server", s.AppSites()[0], srv}},
		// Phase A: establish and hold the idle population.
		phase{name: "preload", budgetNS: 8_000e6, done: cli.PreloadDone},
		// Phase B: the rate-paced storm, over the held population.
		phase{name: "churn", budgetNS: cfg.DurationNS + 8_000e6,
			start: func(now int64) {
				if cfg.Conns > 0 {
					res.SegPerConn = float64(s.Envs[0].Seg.Used()-segBefore) / float64(cfg.Conns)
					res.HeapPerConn = float64(int64(retainedBytes(s))-int64(heapBefore)) / float64(cfg.Conns)
				}
				cli.StartChurn(now)
			},
			done: func() bool { return cli.Done() && srv.Served() >= cli.Completed() }})
	if err != nil {
		return res, err
	}

	res.Completed = cli.Completed()
	res.ChurnNS = cli.ChurnNS()
	res.Deferred = cli.Deferred()
	res.ConnectP50NS = cli.Hist.Quantile(0.50)
	res.ConnectP99NS = cli.Hist.Quantile(0.99)
	res.Stats = s.Sharded.Stats()
	return res, nil
}

// retainedBytes sums the connection-plane heap accounting of every
// stack in the bed — the server shards plus each peer's single stack,
// since both endpoints of every preloaded pair live in this process.
// The preload delta therefore measures retained connection state
// deterministically: unlike a runtime.MemStats sample, it cannot see
// the allocations of sweep cells running concurrently on other host
// cores, so the report is byte-identical at any -parallel value.
func retainedBytes(s *testbed.Bed) uint64 {
	b := s.Sharded.RetainedBytes()
	for _, p := range s.Peers {
		b += p.Env.Stk.RetainedBytes()
	}
	return b
}

// DefaultScenario8Duration is the churn phase's virtual length.
const DefaultScenario8Duration = int64(1_000e6)

// RunScenario8 measures one configuration on a fresh virtual testbed.
func RunScenario8(cfg Scenario8Config) (Scenario8Result, error) {
	return fresh(NewScenario8, cfg, func(s *testbed.Bed) (Scenario8Result, error) {
		return Scenario8Churn(s, cfg)
	})
}

// RunScenario8RateSweep measures the offered-rate ladder in both
// Baseline and capability mode at a fixed shard count and idle
// population.
func RunScenario8RateSweep(shards, conns int, rates []float64, durationNS int64) ([]Scenario8Result, error) {
	var cells []Scenario8Config
	for _, capMode := range []bool{false, true} {
		for _, rate := range rates {
			cells = append(cells, Scenario8Config{
				Shards: shards, CapMode: capMode, Conns: conns,
				Rate: rate, DurationNS: durationNS,
			})
		}
	}
	return sweep(cells, RunScenario8, func(cfg Scenario8Config) string {
		return fmt.Sprintf("rate=%.0f %s", cfg.Rate, modeName(cfg.CapMode))
	})
}

// FormatScenario8 renders a sweep. The drops column folds refused SYNs
// and accept-queue overflows; deferred marks points where the client
// itself could not sustain the offered rate.
func FormatScenario8(results []Scenario8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO 8 — connection churn storm: accepts/sec over an idle population\n")
	if len(results) > 0 {
		r := results[0]
		fmt.Fprintf(&b, "(port %.0f Gbit/s, %d shards, %d idle conns held, 64 B flows, client closes first)\n",
			s4LineRate/1e9, r.Shards, r.Conns)
	}
	fmt.Fprintf(&b, "  %-9s %10s %10s %9s %9s %10s %10s %7s\n",
		"Mode", "Offered/s", "Accepts/s", "p50(µs)", "p99(µs)", "seg B/idle", "heap B/idle", "drops")
	for _, r := range results {
		note := ""
		if r.Deferred > 0 {
			note = fmt.Sprintf("  (client deferred %d)", r.Deferred)
		}
		fmt.Fprintf(&b, "  %-9s %10.0f %10.0f %9.1f %9.1f %10.1f %10.0f %7d%s\n",
			modeName(r.CapMode), r.Rate, r.AcceptsPerSec(),
			float64(r.ConnectP50NS)/1e3, float64(r.ConnectP99NS)/1e3,
			r.SegPerConn, r.HeapPerConn,
			r.Stats.SynDrops+r.Stats.AcceptOverflows, note)
	}
	return b.String()
}

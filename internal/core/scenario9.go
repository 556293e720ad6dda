package core

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Scenario 9 — request/response tail latency. Every other workload
// metric is bulk goodput; production traffic is RPC-shaped, many small
// exchanges where per-request p99 is the figure of merit. The workload
// is internal/app's two protocol pairs: an HTTP/1.1-style keep-alive
// exchange over TCP and a DNS-shaped query/answer over UDP, each
// driven either open-loop (offered rate swept, queueing shows up in
// the tail) or closed-loop (concurrency swept, each slot back-to-
// back). The server runs on the sharded box, baseline or capability
// mode; the client runs one worker per server shard on the peer, with
// source ports engineered through the device's steering oracle so
// worker w's flows land on shard w — per-worker latency histograms are
// merged across shards for the report, extending the paper's
// gate-crossing latency story (Figs 4-6) to realistic traffic.

const (
	// The port is Scenario 4's fast multi-queue one: the application
	// plane, not the wire, is the variable under test.

	// s9HTTPPort / s9DNSPort are the server's listen ports.
	s9HTTPPort = uint16(8080)
	s9DNSPort  = uint16(5353)
	// s9Backlog is the HTTP listener's accept-queue bound.
	s9Backlog = 512
	// httpRespBytes is the HTTP response body size, here and in
	// Scenario 10.
	httpRespBytes = 1200

	// s9BufBytes sizes socket buffers: a few pipelined responses fit,
	// but an overloaded open-loop point still backpressures into the
	// client's tail instead of buffering without bound.
	s9BufBytes = 32 << 10
	// s9SynCache bounds each shard's half-open cache.
	s9SynCache = 1024

	// Environment sizing, as in Scenario 8.
	s9SegSize  = 48 << 20
	s9PoolBufs = 3072

	// s9SportBase is where the client workers' managed source-port walk
	// starts (the steering-oracle engineering picks from here up).
	s9SportBase = uint16(20000)
	// s9Seed fixes the impairment pipeline's PRNG.
	s9Seed = 9
	// s9RTOMin raises the retransmission floor when the link carries
	// ms-scale delay, as Scenario 5 does on WAN paths.
	s9RTOMin = int64(200e6)
	// s9MaxTries is the DNS client's total attempt budget per query.
	s9MaxTries = 3
)

// Scenario9Config parameterizes one request/response point.
type Scenario9Config struct {
	// Proto selects the exchange: "http" (TCP keep-alive) or "dns"
	// (UDP query/answer).
	Proto string
	// Shards is the server-side stack shard / NIC queue-pair count,
	// and the client worker count.
	Shards int
	// CapMode runs the server stack inside a cVM with capability DMA.
	CapMode bool
	// Rate, when positive, drives open-loop at that many requests per
	// second across all workers; 0 drives closed-loop.
	Rate float64
	// Conns is the HTTP keep-alive connection count (the concurrency,
	// closed-loop) or the DNS closed-loop outstanding-query count.
	Conns int
	// RespBytes is the HTTP response body size (0 = httpRespBytes).
	RespBytes int
	// Link, when non-zero, impairs the client-server path (loss,
	// delay; seeded for determinism).
	Link netem.Config
	// DurationNS is the measured phase's virtual length.
	DurationNS int64
	// TimeoutNS is the DNS retry timeout (0 = derived from the link
	// delay).
	TimeoutNS int64
	// Obs selects the observability instruments wired into the bed.
	// The zero value keeps the run byte-identical to an uninstrumented
	// one.
	Obs testbed.ObsSpec
}

func (c *Scenario9Config) applyDefaults() {
	if c.RespBytes == 0 {
		c.RespBytes = httpRespBytes
	}
	if c.TimeoutNS == 0 {
		c.TimeoutNS = 200e6 + 8*c.Link.DelayNS
	}
}

// s9Tuning is the request-plane stack configuration: modern loss
// recovery (small exchanges cannot afford go-back-N under impairment),
// sized buffers, a bounded SYN cache.
func s9Tuning() *fstack.TCPTuning { return connTuning(true, s9BufBytes, s9SynCache) }

// NewScenario9 builds the RPC layout: a sharded server box (process or
// cVM) on a fast RSS port, one peer as the load generator, optionally
// joined by an impairment pipeline.
func NewScenario9(clk hostos.Clock, cfg Scenario9Config) (*testbed.Bed, error) {
	if cfg.Proto != "http" && cfg.Proto != "dns" {
		return nil, fmt.Errorf("core: scenario 9 proto must be http or dns, not %q", cfg.Proto)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: scenario 9 needs at least one shard")
	}
	if cfg.Conns < 1 {
		return nil, fmt.Errorf("core: scenario 9 needs at least one connection")
	}
	cfg.applyDefaults()
	box := boxSpec{
		name: "s9", capMode: cfg.CapMode,
		lineRate: s4LineRate, rxFifo: s4RxFifoBytes,
		segBytes: s9SegSize, poolBufs: s9PoolBufs,
		peerSeg: s9SegSize, peerPool: s9PoolBufs,
		stack:     testbed.StackSpec{Shards: cfg.Shards, RingSize: s4RingSize, Tuning: s9Tuning()},
		peerStack: testbed.StackSpec{Tuning: s9Tuning()},
		obs:       cfg.Obs,
	}
	if cfg.Link != (netem.Config{}) {
		link := cfg.Link
		if link.Seed == 0 {
			link.Seed = s9Seed
		}
		box.link = testbed.SymmetricLink(link)
	}
	if cfg.Link.DelayNS >= 1e6 {
		// ms-scale RTTs: raise the RTO floor on both ends so queueing
		// jitter cannot fire spurious retransmissions (DESIGN.md §7).
		box.stack.Tuning.RTOMinNS = s9RTOMin
		box.peerStack.Tuning.RTOMinNS = s9RTOMin
	}
	return box.build(clk)
}

// Scenario9Result is one measured request/response point.
type Scenario9Result struct {
	Shards  int
	CapMode bool
	Rate    float64 // offered rate (open-loop); 0 = closed-loop
	Conns   int

	// Issued / Completed are requests sent and responses fully
	// received, summed over the workers; RunNS the longest worker's
	// measured phase.
	Issued    uint64
	Completed uint64
	RunNS     int64
	// Deferred counts open-loop pace slots skipped at the outstanding
	// cap (the load the client could not offer).
	Deferred uint64
	// Timeouts / Failed are DNS expirations and abandoned queries.
	Timeouts uint64
	Failed   uint64
	// ServerBad, ServerMalformed and ServerTxBusy are what the server
	// application itself dropped: malformed HTTP request heads, datagrams
	// that are not a DNS query, and answers refused by a full transmit path.
	// All zero on a clean run.
	ServerBad       uint64
	ServerMalformed uint64
	ServerTxBusy    uint64
	// ClientStray counts datagrams the DNS clients took for no answer:
	// not from the server, not a response, or too short. Zero on a
	// clean run.
	ClientStray uint64
	// ClientMalformed counts responses the HTTP clients refused, each
	// resetting its connection: one with no request outstanding, or a
	// negative Content-Length. Zero on a clean run.
	ClientMalformed uint64
	// P50NS/P99NS/P999NS are per-request latency quantiles, merged
	// across the workers (one per server shard).
	P50NS  int64
	P99NS  int64
	P999NS int64
	// Stats are the server shards' aggregated counters.
	Stats fstack.StackStats
	// Obs carries the run's instruments when cfg.Obs enabled them.
	Obs *obs.Obs
}

// CompletedPerSec is the achieved request completion rate.
func (r Scenario9Result) CompletedPerSec() float64 {
	if r.RunNS <= 0 {
		return 0
	}
	return float64(r.Completed) / (float64(r.RunNS) / 1e9)
}

// Drops folds the server-side refusal counters relevant to the
// request plane: refused SYNs, accept-queue overflows, and full UDP
// datagram queues.
func (r Scenario9Result) Drops() uint64 {
	return r.Stats.SynDrops + r.Stats.AcceptOverflows + r.Stats.UdpQueueDrops
}

// s9Sports walks the managed port range for n source ports whose
// inbound tuples the device steers to the wanted queue, so worker w's
// flows land on shard w. The cursor is shared across workers to keep
// every port distinct.
func s9Sports(s *testbed.Bed, proto uint8, dport uint16, want, n int, cursor *uint16) []uint16 {
	out := make([]uint16, 0, n)
	for guard := 0; len(out) < n && guard < 1<<17; guard++ {
		p := *cursor
		*cursor++
		if *cursor < s9SportBase {
			*cursor = s9SportBase
		}
		if s.Dev.RxQueueOf(peerIP(0), localIP(0), proto, p, dport) == want {
			out = append(out, p)
		}
	}
	return out
}

// tally adds one finished worker's counters to the point.
func (r *Scenario9Result) tally(issued, completed, deferred uint64, runNS int64) {
	r.Issued += issued
	r.Completed += completed
	r.Deferred += deferred
	r.RunNS = max(r.RunNS, runNS)
}

// Scenario9Run drives one point on a built bed.
func Scenario9Run(s *testbed.Bed, cfg Scenario9Config) (Scenario9Result, error) {
	cfg.applyDefaults()
	res := Scenario9Result{
		Shards: cfg.Shards, CapMode: cfg.CapMode, Rate: cfg.Rate, Conns: cfg.Conns,
	}

	// One client worker per server shard (never more workers than
	// connection slots), each with its own latency histogram.
	workers := cfg.Shards
	if workers > cfg.Conns {
		workers = cfg.Conns
	}
	http := cfg.Proto == "http"
	var srv endpoint = app.NewDNSServer(fstack.IPv4Addr{}, s9DNSPort)
	if http {
		srv = app.NewHTTPServer(fstack.IPv4Addr{}, s9HTTPPort, s9Backlog, cfg.RespBytes)
	}
	var trace *obs.Trace
	if s.Obs != nil {
		trace = s.Obs.Trace
	}
	cursor := s9SportBase
	peer := s.Peers[0].Site()
	eps := []placed{{"server", s.AppSites()[0], srv}}
	var https []*app.HTTPClient
	var dnss []*app.DNSClient
	for w := 0; w < workers; w++ {
		slots := cfg.Conns / workers // worker w's slice of the slots
		if w < cfg.Conns%workers {
			slots++
		}
		var cli endpoint
		if http {
			sports := s9Sports(s, fstack.ProtoTCP, s9HTTPPort, w, slots, &cursor)
			if len(sports) < slots {
				return res, fmt.Errorf("core: scenario 9 found no steered source ports for shard %d", w)
			}
			c, err := app.NewHTTPClient(localIP(0), s9HTTPPort, slots, sports, cfg.Rate*float64(slots)/float64(cfg.Conns), cfg.DurationNS)
			if err != nil {
				return res, err
			}
			c.Trace, c.Src = trace, uint16(192+w)
			cli, https = c, append(https, c)
		} else {
			sports := s9Sports(s, fstack.ProtoUDP, s9DNSPort, w, 1, &cursor)
			if len(sports) < 1 {
				return res, fmt.Errorf("core: scenario 9 found no steered source port for shard %d", w)
			}
			c, err := app.NewDNSClient(localIP(0), s9DNSPort, sports[0], max(cfg.Rate, 0)/float64(workers), slots, cfg.DurationNS, cfg.TimeoutNS, s9MaxTries)
			if err != nil {
				return res, err
			}
			c.Trace, c.Src = trace, uint16(192+w)
			cli, dnss = c, append(dnss, c)
		}
		eps = append(eps, placed{fmt.Sprintf("worker %d", w), peer, cli})
	}
	// Budget: the measured phase plus generous handshake/drain/retry
	// slack (DNS abandons after MaxTries timeouts).
	budget := cfg.DurationNS + 8_000e6 + int64(s9MaxTries+1)*cfg.TimeoutNS
	httpDone, dnsDone := allDone(https), allDone(dnss)
	done := func() bool { return httpDone() && dnsDone() }
	err := measure(s, "scenario 9", eps, phase{budgetNS: budget, done: done})
	// Merge the per-worker (per-shard) histograms for the report.
	var merged stats.Histogram
	for _, c := range https {
		res.tally(c.Issued(), c.Completed(), c.Deferred(), c.RunNS())
		res.ClientMalformed += c.Malformed()
		merged.Merge(&c.Hist)
	}
	for _, c := range dnss {
		res.tally(c.Issued(), c.Completed(), c.Deferred(), c.RunNS())
		res.Timeouts += c.Timeouts()
		res.Failed += c.Failed()
		res.ClientStray += c.Stray()
		merged.Merge(&c.Hist)
	}
	switch srv := srv.(type) {
	case *app.HTTPServer:
		res.ServerBad = srv.Bad()
	case *app.DNSServer:
		res.ServerMalformed, res.ServerTxBusy = srv.Malformed(), srv.TxBusy()
	}
	if err != nil {
		return res, err
	}
	res.P50NS = merged.Quantile(0.50)
	res.P99NS = merged.Quantile(0.99)
	res.P999NS = merged.Quantile(0.999)
	res.Stats = s.Sharded.Stats()
	res.Obs = s.Obs
	return res, nil
}

// DefaultScenario9Duration is the measured phase's virtual length.
const DefaultScenario9Duration = int64(500e6)

// RunScenario9 measures one configuration on a fresh virtual testbed.
func RunScenario9(cfg Scenario9Config) (Scenario9Result, error) {
	return fresh(NewScenario9, cfg, func(s *testbed.Bed) (Scenario9Result, error) {
		return Scenario9Run(s, cfg)
	})
}

// RunScenario9RateSweep measures the open-loop offered-rate ladder in
// both Baseline and capability mode. An optional SweepObs instruments
// every point's bed and exports its trace, timeseries and captures.
func RunScenario9RateSweep(proto string, shards, conns int, rates []float64, link netem.Config, durationNS int64, obsOpt ...SweepObs) ([]Scenario9Result, error) {
	var cells []Scenario9Config
	for _, capMode := range []bool{false, true} {
		for _, rate := range rates {
			cells = append(cells, Scenario9Config{
				Proto: proto, Shards: shards, CapMode: capMode,
				Rate: rate, Conns: conns, Link: link, DurationNS: durationNS,
			})
		}
	}
	return sweepScenario9(cells, obsOpt)
}

// RunScenario9ConcurrencySweep measures the closed-loop concurrency
// ladder in both Baseline and capability mode.
func RunScenario9ConcurrencySweep(proto string, shards int, concs []int, link netem.Config, durationNS int64, obsOpt ...SweepObs) ([]Scenario9Result, error) {
	var cells []Scenario9Config
	for _, capMode := range []bool{false, true} {
		for _, conc := range concs {
			cells = append(cells, Scenario9Config{
				Proto: proto, Shards: shards, CapMode: capMode,
				Conns: conc, Link: link, DurationNS: durationNS,
			})
		}
	}
	return sweepScenario9(cells, obsOpt)
}

func sweepScenario9(cells []Scenario9Config, obsOpt []SweepObs) ([]Scenario9Result, error) {
	return sweepObserved(cells, obsOpt, scenario9Label,
		func(cfg Scenario9Config, spec testbed.ObsSpec) (Scenario9Result, error) {
			cfg.Obs = spec
			return RunScenario9(cfg)
		},
		func(r Scenario9Result) *obs.Obs { return r.Obs })
}

// scenario9Label names one sweep point in errors and export filenames,
// e.g. "s9_http_cheri_open20000" or "s9_dns_baseline_closed8".
func scenario9Label(cfg Scenario9Config) string {
	load := fmt.Sprintf("closed%d", cfg.Conns)
	if cfg.Rate > 0 {
		load = fmt.Sprintf("open%.0f", cfg.Rate)
	}
	return fmt.Sprintf("s9_%s_%s_%s", cfg.Proto, modeName(cfg.CapMode), load)
}

// FormatScenario9 renders a sweep: per-request latency quantiles
// against offered load, the drops column folding refused SYNs,
// accept-queue overflows and full UDP queues.
func FormatScenario9(title string, results []Scenario9Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO 9 — request/response tail latency: %s\n", title)
	if len(results) > 0 {
		r := results[0]
		fmt.Fprintf(&b, "(port %.0f Gbit/s, %d shards, per-request latency merged across shards)\n",
			s4LineRate/1e9, r.Shards)
	}
	fmt.Fprintf(&b, "  %-9s %-14s %9s %9s %9s %9s %5s %6s\n",
		"Mode", "Load", "Done/s", "p50(µs)", "p99(µs)", "p999(µs)", "tmo", "drops")
	for _, r := range results {
		load := fmt.Sprintf("closed ×%d", r.Conns)
		if r.Rate > 0 {
			load = fmt.Sprintf("open %.0f/s", r.Rate)
		}
		note := ""
		if r.Deferred > 0 {
			note = fmt.Sprintf("  (client deferred %d)", r.Deferred)
		}
		if r.Failed > 0 {
			note += fmt.Sprintf("  (%d failed)", r.Failed)
		}
		for _, drop := range []struct {
			n         uint64
			who, what string
		}{
			{r.ServerBad, "server", "bad requests"},
			{r.ServerMalformed, "server", "malformed queries"},
			{r.ServerTxBusy, "server", "answers dropped tx-busy"},
			{r.ClientStray, "client", "stray datagrams"},
			{r.ClientMalformed, "client", "malformed responses"},
		} {
			if drop.n > 0 {
				note += fmt.Sprintf("  (%s: %d %s)", drop.who, drop.n, drop.what)
			}
		}
		fmt.Fprintf(&b, "  %-9s %-14s %9.0f %9.1f %9.1f %9.1f %5d %6d%s\n",
			modeName(r.CapMode), load, r.CompletedPerSec(),
			float64(r.P50NS)/1e3, float64(r.P99NS)/1e3, float64(r.P999NS)/1e3,
			r.Timeouts, r.Drops(), note)
	}
	return b.String()
}

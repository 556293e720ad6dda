package core

import (
	"strings"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// s9TestConfig is a moderate-load point: well under the port and
// server capacity, so every drop or timeout is unforced and the
// zero-drop gates below are meaningful.
func s9TestConfig(proto string, capMode bool) Scenario9Config {
	return Scenario9Config{
		Proto: proto, Shards: 2, CapMode: capMode,
		Rate: 4000, Conns: 8, DurationNS: 200e6,
	}
}

// requireClean asserts the moderate-load acceptance gate: zero
// unforced drops or timeouts, and every issued request completed.
func requireClean(t *testing.T, r Scenario9Result) {
	t.Helper()
	if r.Completed == 0 {
		t.Fatalf("completed no requests: %+v", r)
	}
	if r.Completed != r.Issued {
		t.Fatalf("issued %d but completed %d", r.Issued, r.Completed)
	}
	if r.Timeouts != 0 || r.Failed != 0 {
		t.Fatalf("unforced timeouts %d / failures %d", r.Timeouts, r.Failed)
	}
	if r.Drops() != 0 {
		t.Fatalf("unforced server drops: %d SYN, %d overflow, %d udp-queue",
			r.Stats.SynDrops, r.Stats.AcceptOverflows, r.Stats.UdpQueueDrops)
	}
	if r.ServerBad != 0 || r.ServerMalformed != 0 || r.ServerTxBusy != 0 {
		t.Fatalf("the server application dropped: %d bad requests, %d malformed queries, %d answers tx-busy",
			r.ServerBad, r.ServerMalformed, r.ServerTxBusy)
	}
	if r.ClientStray != 0 || r.ClientMalformed != 0 {
		t.Fatalf("the clients took %d stray datagrams and %d malformed responses", r.ClientStray, r.ClientMalformed)
	}
	if r.P50NS <= 0 || r.P99NS < r.P50NS || r.P999NS < r.P99NS {
		t.Fatalf("implausible quantiles p50=%d p99=%d p999=%d", r.P50NS, r.P99NS, r.P999NS)
	}
}

func TestScenario9HTTPOpenLoop(t *testing.T) {
	r, err := RunScenario9(s9TestConfig("http", false))
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, r)
	offered := uint64(r.Rate * float64(r.RunNS) / 1e9)
	if r.Completed < offered*9/10 {
		t.Fatalf("completed %d of ~%d offered requests", r.Completed, offered)
	}
	if r.Deferred != 0 {
		t.Fatalf("moderate load deferred %d pace slots", r.Deferred)
	}
}

func TestScenario9HTTPClosedLoop(t *testing.T) {
	cfg := s9TestConfig("http", false)
	cfg.Rate = 0 // closed-loop: each connection back-to-back
	r, err := RunScenario9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, r)
	// Eight always-busy connections must beat the open-loop trickle.
	if r.CompletedPerSec() < 4000 {
		t.Fatalf("closed-loop completed only %.0f req/s", r.CompletedPerSec())
	}
}

func TestScenario9DNSOpenLoop(t *testing.T) {
	r, err := RunScenario9(s9TestConfig("dns", false))
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, r)
	offered := uint64(r.Rate * float64(r.RunNS) / 1e9)
	if r.Completed < offered*9/10 {
		t.Fatalf("completed %d of ~%d offered queries", r.Completed, offered)
	}
}

func TestScenario9DNSClosedLoop(t *testing.T) {
	cfg := s9TestConfig("dns", false)
	cfg.Rate = 0
	cfg.Conns = 4 // four outstanding queries per the two workers
	r, err := RunScenario9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, r)
	if r.CompletedPerSec() < 4000 {
		t.Fatalf("closed-loop completed only %.0f query/s", r.CompletedPerSec())
	}
}

// TestScenario9DNSLossRecovery pins the retry machinery: on a lossy
// link some queries must time out and be retransmitted, yet the
// attempt budget keeps abandonment rare and the run still completes
// the bulk of the offered load.
func TestScenario9DNSLossRecovery(t *testing.T) {
	cfg := s9TestConfig("dns", false)
	cfg.Rate = 2000
	cfg.Link = netem.Config{LossRate: 0.05, Seed: s9Seed}
	cfg.TimeoutNS = 50e6
	r, err := RunScenario9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeouts == 0 {
		t.Fatalf("5%% loss produced no timeouts (issued %d)", r.Issued)
	}
	if r.Completed < r.Issued*8/10 {
		t.Fatalf("retries recovered only %d of %d queries (%d abandoned)",
			r.Completed, r.Issued, r.Failed)
	}
}

// TestScenario9CapGate is the acceptance gate: capability-mode p99
// must stay within 2x of the baseline p99 at the same moderate load,
// for both protocols.
func TestScenario9CapGate(t *testing.T) {
	for _, proto := range []string{"http", "dns"} {
		base, err := RunScenario9(s9TestConfig(proto, false))
		if err != nil {
			t.Fatal(err)
		}
		capr, err := RunScenario9(s9TestConfig(proto, true))
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, capr)
		if capr.P99NS > 2*base.P99NS {
			t.Fatalf("%s capability-mode p99 %dns above 2x baseline %dns",
				proto, capr.P99NS, base.P99NS)
		}
	}
}

// TestScenario9Deterministic pins run-to-run determinism for both
// protocols: the clients drain epoll ready sets and shard scans whose
// internal order is map-random, so any order dependence shows up as
// diverging counters or quantiles between identical runs.
func TestScenario9Deterministic(t *testing.T) {
	for _, proto := range []string{"http", "dns"} {
		cfg := s9TestConfig(proto, false)
		cfg.Link = netem.Config{LossRate: 0.02, DelayNS: 2e6}
		a, err := RunScenario9(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunScenario9(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s: identical configs diverged:\n  a: %+v\n  b: %+v", proto, a, b)
		}
	}
}

// TestScenario9ShardedStatsConsistency extends the sharded-stats
// invariant to the request plane: mid-run, the aggregate must equal
// the per-shard sum (struct equality automatically covers every
// counter, UdpQueueDrops included).
func TestScenario9ShardedStatsConsistency(t *testing.T) {
	for _, proto := range []string{"http", "dns"} {
		cfg := s9TestConfig(proto, false)
		s, err := NewScenario9(sim.NewVClock(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ss := s.Sharded

		checks, mismatches := 0, 0
		iter := 0
		visitHook = func(now int64, active bool) {
			iter++
			if iter%64 != 0 {
				return
			}
			checks++
			want := ss.Stats()
			got := ss.Shards()[0].Stats()
			for i := 1; i < ss.NumShards(); i++ {
				got.Add(ss.Shards()[i].Stats())
			}
			if got != want {
				mismatches++
			}
		}
		defer func() { visitHook = nil }()

		r, err := Scenario9Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		visitHook = nil
		if checks == 0 {
			t.Fatal("visit hook never sampled")
		}
		if mismatches != 0 {
			t.Fatalf("%s: %d of %d samples saw aggregate != per-shard sum", proto, mismatches, checks)
		}
		if r.Completed == 0 {
			t.Fatalf("%s: completed no requests", proto)
		}
	}
}

func TestScenario9RejectsBadConfig(t *testing.T) {
	cases := []Scenario9Config{
		{Proto: "smtp", Shards: 2, Conns: 8, DurationNS: 1e6},
		{Proto: "http", Shards: 0, Conns: 8, DurationNS: 1e6},
		{Proto: "dns", Shards: 2, Conns: 0, DurationNS: 1e6},
	}
	for i, cfg := range cases {
		if _, err := NewScenario9(sim.NewVClock(), cfg); err == nil {
			t.Fatalf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}

// TestScenario9ReportsServerDrops: what the server application dropped,
// and what the clients took as stray, is in the row's trailing note when
// there is any, and only then — the golden rows, which drop nothing,
// carry no note.
func TestScenario9ReportsServerDrops(t *testing.T) {
	clean := Scenario9Result{Shards: 2, Rate: 1000, Conns: 4, RunNS: 1e9, Completed: 1000}
	if out := FormatScenario9("t", []Scenario9Result{clean}); strings.Contains(out, "server:") || strings.Contains(out, "client:") {
		t.Fatalf("a clean row carries a server note:\n%s", out)
	}
	dirty := clean
	dirty.ServerBad, dirty.ServerMalformed, dirty.ServerTxBusy, dirty.ClientStray, dirty.ClientMalformed = 1, 2, 3, 4, 5
	out := FormatScenario9("t", []Scenario9Result{dirty})
	for _, want := range []string{"(server: 1 bad requests)", "(server: 2 malformed queries)", "(server: 3 answers dropped tx-busy)",
		"(client: 4 stray datagrams)", "(client: 5 malformed responses)"} {
		if !strings.Contains(out, want) {
			t.Errorf("row lacks %q:\n%s", want, out)
		}
	}
}

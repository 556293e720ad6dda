package core

import (
	"testing"

	"repro/internal/sim"
)

// s8TestConfig is a churn point small enough for the unit-test
// budget: enough conns to spread across shards and enough flows for
// stable quantiles.
func s8TestConfig(capMode bool) Scenario8Config {
	return Scenario8Config{
		Shards: 2, CapMode: capMode, Conns: 400,
		Rate: 4000, DurationNS: 200e6,
	}
}

func TestScenario8Churn(t *testing.T) {
	r, err := RunScenario8(s8TestConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	offered := uint64(r.Rate * float64(r.ChurnNS) / 1e9)
	if r.Completed < offered*9/10 {
		t.Fatalf("completed %d of ~%d offered flows", r.Completed, offered)
	}
	if r.Stats.Accepts < uint64(r.Conns)+r.Completed {
		t.Fatalf("accepts %d < preload %d + churn %d", r.Stats.Accepts, r.Conns, r.Completed)
	}
	if r.Stats.SynDrops != 0 || r.Stats.AcceptOverflows != 0 {
		t.Fatalf("unforced drops: %d SYN, %d overflow", r.Stats.SynDrops, r.Stats.AcceptOverflows)
	}
	if r.ConnectP99NS <= 0 {
		t.Fatalf("connect p99 %d", r.ConnectP99NS)
	}
}

// TestScenario8IdleConnMemory pins the tentpole's memory claim: with
// lazy buffers, an idle accepted connection reserves no stack segment
// bytes, and its process-heap cost stays bounded (conn + socket +
// epoll bookkeeping on both endpoints, not buffer pages).
func TestScenario8IdleConnMemory(t *testing.T) {
	r, err := RunScenario8(s8TestConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if r.SegPerConn != 0 {
		t.Fatalf("idle conns reserved %.1f segment bytes each; lazy buffers should make this 0", r.SegPerConn)
	}
	// runtime.ReadMemStats deltas are approximate; the bound only has
	// to rule out eagerly-backed buffers (16 KiB per conn per side).
	if r.HeapPerConn > 8192 {
		t.Fatalf("idle conns cost %.0f heap bytes each", r.HeapPerConn)
	}
}

// TestScenario8CapGate is the acceptance gate: capability-mode accept
// throughput must stay within 2x of the baseline at the same offered
// load.
func TestScenario8CapGate(t *testing.T) {
	base, err := RunScenario8(s8TestConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	cap, err := RunScenario8(s8TestConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if base.Completed == 0 {
		t.Fatal("baseline completed no flows")
	}
	if cap.AcceptsPerSec() < base.AcceptsPerSec()/2 {
		t.Fatalf("capability mode accepts/s %.0f below half of baseline %.0f",
			cap.AcceptsPerSec(), base.AcceptsPerSec())
	}
}

// TestScenario8Deterministic pins run-to-run determinism: the churn
// workload drains epoll ready sets whose internal order is
// map-random, so any truncated visit or order dependence would show
// up as differing counters between identical runs.
func TestScenario8Deterministic(t *testing.T) {
	cfg := s8TestConfig(false)
	a, err := RunScenario8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Heap measurement is process-global and excluded.
	if a.Completed != b.Completed || a.ChurnNS != b.ChurnNS ||
		a.ConnectP50NS != b.ConnectP50NS || a.ConnectP99NS != b.ConnectP99NS ||
		a.Deferred != b.Deferred || a.Stats != b.Stats {
		t.Fatalf("identical configs diverged:\n  a: %+v stats %+v\n  b: %+v stats %+v",
			a, a.Stats, b, b.Stats)
	}
}

// TestScenario8ShardedStatsConsistency extends the sharded-stats
// invariant to the connection-plane counters: mid-churn, the
// aggregate must equal the per-shard sum (struct equality covers
// Accepts, SynDrops, AcceptOverflows and TimeWaitReuses) and the
// accept counter must be monotonic.
func TestScenario8ShardedStatsConsistency(t *testing.T) {
	cfg := s8TestConfig(false)
	s, err := NewScenario8(sim.NewVClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := s.Sharded

	checks, mismatches := 0, 0
	var prevAccepts uint64
	iter := 0
	visitHook = func(now int64, active bool) {
		iter++
		if iter%64 != 0 {
			return
		}
		checks++
		agg := ss.Stats()
		sum := ss.Shards()[0].Stats()
		for i := 1; i < ss.NumShards(); i++ {
			sum.Add(ss.Shards()[i].Stats())
		}
		if agg != sum {
			mismatches++
			if mismatches == 1 {
				t.Errorf("at %d ns: aggregate %+v != per-shard sum %+v", now, agg, sum)
			}
		}
		if agg.Accepts < prevAccepts {
			t.Errorf("at %d ns: accepts went backward (%d < %d)", now, agg.Accepts, prevAccepts)
		}
		prevAccepts = agg.Accepts
		if n := ss.ConnCount(); n < 0 {
			t.Errorf("at %d ns: negative conn count %d", now, n)
		}
		for _, stk := range ss.Shards() {
			if d := stk.AcceptQueueDepth(); d < 0 {
				t.Errorf("at %d ns: negative accept-queue depth %d", now, d)
			}
		}
	}
	defer func() { visitHook = nil }()

	if _, err := Scenario8Churn(s, cfg); err != nil {
		t.Fatal(err)
	}
	if checks < 10 {
		t.Fatalf("only %d mid-run checks fired; the hook did not observe the run", checks)
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d mid-run aggregate mismatches", mismatches, checks)
	}
	if got := ss.ConnCount(); got != cfg.Conns {
		t.Fatalf("after the churn, %d conns remain; the %d-conn idle population should", got, cfg.Conns)
	}
}

func TestScenario8RejectsBadConfig(t *testing.T) {
	if _, err := NewScenario8(sim.NewVClock(), Scenario8Config{Shards: 0}); err == nil {
		t.Fatal("0 shards accepted")
	}
}

// TestScenario8AboveFourPorts holds an idle population past what four
// listen ports' source-port windows carry (4 × 64 000): the port spread
// follows the population, so the preload is established whole.
func TestScenario8AboveFourPorts(t *testing.T) {
	skipUnderRace(t) // one goroutine: nothing for the detector, and slow under it
	const conns = 260_000
	r, err := RunScenario8(Scenario8Config{Shards: 2, Conns: conns, Rate: 1000, DurationNS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Accepts < conns || r.Stats.SynDrops != 0 || r.Stats.AcceptOverflows != 0 {
		t.Fatalf("%d accepts for %d preload conns (%d SYN drops, %d overflows)", r.Stats.Accepts, conns, r.Stats.SynDrops, r.Stats.AcceptOverflows)
	}
}

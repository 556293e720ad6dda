package core

import (
	"testing"

	"repro/internal/sim"
)

// s4TestDuration keeps the CI runs short; scaling ratios are already
// stable at this length.
const s4TestDuration = int64(200e6)

// TestScenario4SingleShardBaseline sanity-checks the degenerate layout:
// one shard over the multi-queue device must behave like a single
// stack and reach roughly the one-core budget.
func TestScenario4SingleShardBaseline(t *testing.T) {
	s, err := NewScenario4(sim.NewVClock(), Scenario4Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Scenario4Bandwidth(s, LocalIsClient, 2, s4TestDuration)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps < 500 || res.Mbps > 1100 {
		t.Fatalf("single-shard goodput %.0f Mbit/s outside the one-core envelope", res.Mbps)
	}
}

// TestScenario4Scaling is the tentpole acceptance gate: with 4 shards
// and 8 concurrent flows, aggregate goodput must be at least 2.5x the
// 1-shard figure, in both baseline and capability mode.
func TestScenario4Scaling(t *testing.T) {
	for _, capMode := range []bool{false, true} {
		var mbps [2]float64
		for i, shards := range []int{1, 4} {
			res, err := RunScenario4(Scenario4Config{Shards: shards, CapMode: capMode}, LocalIsClient, 8, s4TestDuration)
			if err != nil {
				t.Fatalf("cap=%v shards=%d: %v", capMode, shards, err)
			}
			mbps[i] = res.Mbps
			t.Logf("cap=%v shards=%d flows=8: %.0f Mbit/s (per flow %v)", capMode, shards, res.Mbps, res.perFlow)
		}
		if mbps[1] < 2.5*mbps[0] {
			t.Fatalf("cap=%v: 4-shard goodput %.0f < 2.5x 1-shard %.0f", capMode, mbps[1], mbps[0])
		}
	}
}

// TestScenario4ServerMode exercises the cloned-listener path: the local
// box receives, each SYN is accepted on whichever shard RSS picked.
func TestScenario4ServerMode(t *testing.T) {
	s, err := NewScenario4(sim.NewVClock(), Scenario4Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Scenario4Bandwidth(s, LocalIsServer, 8, s4TestDuration)
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunScenario4(Scenario4Config{Shards: 1}, LocalIsServer, 8, s4TestDuration)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("server mode: 1 shard %.0f Mbit/s, 4 shards %.0f Mbit/s", one.Mbps, res.Mbps)
	if res.Mbps < 2.5*one.Mbps {
		t.Fatalf("server-mode 4-shard goodput %.0f did not scale over %.0f", res.Mbps, one.Mbps)
	}
}

// TestScenario4ShardCountersSumToAggregate checks the stats invariant on a
// live sharded run: per-shard counters sum to the aggregate, every
// frame is processed by exactly one shard, and the flows really did
// spread over multiple shards.
func TestScenario4ShardCountersSumToAggregate(t *testing.T) {
	s, err := NewScenario4(sim.NewVClock(), Scenario4Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Scenario4Bandwidth(s, LocalIsClient, 8, s4TestDuration); err != nil {
		t.Fatal(err)
	}
	agg := s.Sharded.Stats()
	var rx, tx uint64
	busy := 0
	for i := 0; i < s.Sharded.NumShards(); i++ {
		st := s.Sharded.Shards()[i].Stats()
		rx += st.RxFrames
		tx += st.TxFrames
		if st.TxFrames > 0 {
			busy++
		}
	}
	if rx != agg.RxFrames || tx != agg.TxFrames {
		t.Fatalf("shard stats (%d rx, %d tx) do not sum to aggregate (%d rx, %d tx)",
			rx, tx, agg.RxFrames, agg.TxFrames)
	}
	if busy < 2 {
		t.Fatalf("flows landed on %d shard(s); RSS did not spread the load", busy)
	}
}

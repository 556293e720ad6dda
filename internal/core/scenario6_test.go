package core

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// s6TestDuration keeps CI runs short; the composed ratio is already
// stable at this length.
const s6TestDuration = int64(300e6)

// TestScenario6ComposedGate is the tentpole acceptance gate: on the
// same seeded lossy rate-limited link, 4 shards + SACK must deliver at
// least twice the aggregate goodput of 1 shard + go-back-N (the
// paper's stack), in both Baseline and capability mode.
func TestScenario6ComposedGate(t *testing.T) {
	for _, capMode := range []bool{false, true} {
		legacy, err := RunScenario6(Scenario6Config{Shards: 1, CapMode: capMode}, 8, s6TestDuration)
		if err != nil {
			t.Fatalf("cap=%v legacy: %v", capMode, err)
		}
		s, err := NewScenario6(sim.NewVClock(), Scenario6Config{Shards: 4, CapMode: capMode, Modern: true})
		if err != nil {
			t.Fatalf("cap=%v modern: %v", capMode, err)
		}
		modern, err := Scenario6Bandwidth(s, 8, s6TestDuration)
		if err != nil {
			t.Fatalf("cap=%v modern: %v", capMode, err)
		}
		t.Logf("cap=%v: 1 shard + go-back-N %.0f Mbit/s, 4 shards + SACK %.0f Mbit/s (%.2fx)",
			capMode, legacy.Mbps, modern.Mbps, modern.Mbps/legacy.Mbps)
		if modern.Mbps < 2*legacy.Mbps {
			t.Fatalf("cap=%v: composed stack %.0f Mbit/s < 2x legacy %.0f Mbit/s",
				capMode, modern.Mbps, legacy.Mbps)
		}
		// The win must come from both axes working: flows really spread
		// over shards, and the link really destroyed frames.
		if s.Links[0].Stats(0).Lost() == 0 {
			t.Fatal("impaired link recorded no loss")
		}
		busy := 0
		for _, mbps := range modern.perFlow {
			if mbps > 0 {
				busy++
			}
		}
		if busy != 8 {
			t.Fatalf("only %d of 8 flows moved data", busy)
		}
	}
}

// TestScenario6ReversePathImpairment exercises the per-direction
// LinkSpec end to end: squeezing only the ACK channel (the reverse
// direction) must cost forward goodput, even though the data path is
// untouched.
func TestScenario6ReversePathImpairment(t *testing.T) {
	clean, err := RunScenario6(Scenario6Config{Shards: 2, Modern: true}, 4, s6TestDuration)
	if err != nil {
		t.Fatal(err)
	}
	// A 2 Mbit/s ACK channel with the same propagation delay: the data
	// direction's config is bit-identical (same seed, same impairments).
	s, err := NewScenario6(sim.NewVClock(), Scenario6Config{
		Shards: 2, Modern: true,
		Rev: &netem.Config{DelayNS: s6DelayNS, RateBps: 2e6, QueueBytes: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	squeezed, err := Scenario6Bandwidth(s, 4, s6TestDuration)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean ACK path %.0f Mbit/s, 2 Mbit/s ACK path %.0f Mbit/s", clean.Mbps, squeezed.Mbps)
	if squeezed.Mbps > 0.7*clean.Mbps {
		t.Fatalf("reverse-path squeeze did not bite: %.0f vs %.0f Mbit/s", squeezed.Mbps, clean.Mbps)
	}
	if s.Links[0].Stats(0).Sent == 0 || s.Links[0].Stats(1).Sent == 0 {
		t.Fatal("per-direction link accounting missing")
	}
}

// TestScenario6DownloadMode exercises the server-mode sweep: M
// download flows land in the listeners cloned across the shards
// through the impaired link, so RSS acceptance is exercised under
// loss. The flows must spread over the shards, the data must cross
// the impaired direction, and the sender stats must come from the
// peer (the data sender in this mode).
func TestScenario6DownloadMode(t *testing.T) {
	s, err := NewScenario6(sim.NewVClock(), Scenario6Config{Shards: 4, Modern: true, Download: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Scenario6Bandwidth(s, 8, s6TestDuration)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("download: %.0f Mbit/s aggregate over %d shards [%s]", r.Mbps, r.Shards, r.Stats.RecoverySummary())
	if !r.Download {
		t.Fatal("result not marked as download mode")
	}
	busy := 0
	for _, mbps := range r.perFlow {
		if mbps > 0 {
			busy++
		}
	}
	if busy != 8 {
		t.Fatalf("only %d of 8 download flows moved data", busy)
	}
	// The data direction (peer -> local, link direction 1) is the
	// impaired one.
	fwd, rev := s.Links[0].Stats(1), s.Links[0].Stats(0)
	if fwd.Lost() == 0 {
		t.Fatal("impaired data direction recorded no loss")
	}
	if fwd.Delivered < rev.Delivered {
		t.Fatalf("data direction carried fewer frames (%d) than the ACK path (%d)",
			fwd.Delivered, rev.Delivered)
	}
	// RSS acceptance really spread the SYNs: more than one shard took
	// traffic.
	active := 0
	for i := 0; i < s.Sharded.NumShards(); i++ {
		if st := s.Sharded.Shards()[i].Stats(); st.RxFrames > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("downloads landed on %d shard(s); RSS acceptance not exercised", active)
	}
	// The recovery story belongs to the data sender — the peer.
	if r.Stats.Retransmit == 0 {
		t.Fatal("peer (sender) stats show no retransmissions on a lossy path")
	}
}

// TestScenario6Validation pins the constructor's error paths.
func TestScenario6Validation(t *testing.T) {
	if _, err := NewScenario6(sim.NewVClock(), Scenario6Config{Shards: 0}); err == nil {
		t.Fatal("0 shards accepted")
	}
	s, err := NewScenario6(sim.NewVClock(), Scenario6Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Scenario6Bandwidth(s, 0, s6TestDuration); err == nil {
		t.Fatal("0 flows accepted")
	}
	// Defaults are filled into the effective config.
	if s.Cfg.Fwd.RateBps != s6RateBps || s.Cfg.Fwd.GEBadProb == 0 || s.Cfg.Rev == nil {
		t.Fatalf("defaults not filled: %+v", s.Cfg)
	}
	// The reverse channel matches the forward delay but draws from its
	// own seed stream.
	if s.Cfg.Rev.DelayNS != s.Cfg.Fwd.DelayNS || s.Cfg.Rev.Seed == s.Cfg.Fwd.Seed {
		t.Fatalf("reverse defaults wrong: %+v", s.Cfg.Rev)
	}
}

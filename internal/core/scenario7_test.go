package core

import (
	"strings"
	"testing"

	"repro/internal/fstack"
	"repro/internal/netem"
	"repro/internal/sim"
)

// TestScenario7CubicGate is the tentpole acceptance gate: on the
// seeded 100 Mbit/s × 100 ms RTT default path, CUBIC must deliver at
// least twice Reno's goodput AND at least 70% of the bottleneck, in
// both Baseline and capability mode. The default Scenario 7 link and
// duration are exactly the gated configuration, so this is the same
// table `cherinet scenario7` prints.
func TestScenario7CubicGate(t *testing.T) {
	skipUnderRace(t) // deterministic lockstep run; too slow under the detector
	// run returns the result and the data direction's link accounting.
	run := func(cfg Scenario7Config) (Scenario7Result, netem.DirStats) {
		s, err := NewScenario7(sim.NewVClock(), cfg)
		if err != nil {
			t.Fatalf("cap=%v %s: %v", cfg.CapMode, cfg.Congestion, err)
		}
		r, err := Scenario7Bandwidth(s, DefaultScenario7Duration)
		if err != nil {
			t.Fatalf("cap=%v %s: %v", cfg.CapMode, cfg.Congestion, err)
		}
		return r, s.Links[0].Stats(0)
	}
	for _, capMode := range []bool{false, true} {
		reno, renoFwd := run(Scenario7Config{CapMode: capMode, Congestion: fstack.CCReno})
		cubic, cubicFwd := run(Scenario7Config{CapMode: capMode, Congestion: fstack.CCCubic})
		t.Logf("cap=%v: reno %.1f Mbit/s (util %.0f%%), cubic %.1f Mbit/s (util %.0f%%), %.2fx",
			capMode, reno.Mbps, reno.Utilization()*100, cubic.Mbps, cubic.Utilization()*100,
			cubic.Mbps/reno.Mbps)
		if cubic.Mbps < 2*reno.Mbps {
			t.Fatalf("cap=%v: cubic %.1f Mbit/s < 2x reno %.1f Mbit/s", capMode, cubic.Mbps, reno.Mbps)
		}
		if cubic.Utilization() < 0.70 {
			t.Fatalf("cap=%v: cubic utilization %.0f%% < 70%%", capMode, cubic.Utilization()*100)
		}
		// The comparison must be about growth between loss events, not
		// about recovery style: both runs ride the same seeded fades
		// and neither may collapse into timeout territory.
		if renoFwd.LostBurst == 0 || cubicFwd.LostBurst == 0 {
			t.Fatalf("cap=%v: seeded fades never fired (reno %d, cubic %d)",
				capMode, renoFwd.LostBurst, cubicFwd.LostBurst)
		}
	}
}

// TestScenario7Validation pins the constructor's error paths and the
// config defaulting.
func TestScenario7Validation(t *testing.T) {
	if _, err := NewScenario7(sim.NewVClock(), Scenario7Config{Congestion: "vegas"}); err == nil {
		t.Fatal("unknown congestion control accepted")
	}
	s, err := NewScenario7(sim.NewVClock(), Scenario7Config{Congestion: fstack.CCCubic})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Cfg.Link
	if cfg.RateBps != s7RateBps || cfg.QueueBytes != s7QueueBytes ||
		cfg.DelayNS != s7DelayNS || cfg.GEBadProb != s7GEBadProb || cfg.Seed != s7Seed {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}

// TestScenario7FormatGain pins the summary's gain column: cubic rows
// report their speedup over the reno row of the same mode and RTT.
func TestScenario7FormatGain(t *testing.T) {
	link := netem.Config{RateBps: s7RateBps, QueueBytes: s7QueueBytes, DelayNS: s7DelayNS,
		GEBadProb: s7GEBadProb, GERecoverProb: s7GERecoverProb, GELossBad: 1}
	results := []Scenario7Result{
		{Congestion: fstack.CCReno, Mbps: 30, Link: link},
		{Congestion: fstack.CCCubic, Mbps: 75, Link: link},
	}
	out := FormatScenario7(results)
	if !strings.Contains(out, "2.50x") {
		t.Fatalf("gain column missing 2.50x:\n%s", out)
	}
	if !strings.Contains(out, "cubic") || !strings.Contains(out, "reno") {
		t.Fatalf("controller names missing:\n%s", out)
	}
}

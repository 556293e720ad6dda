package app_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/fstack"
)

// storm runs the client and server state machines end to end through
// the scenario harness: RunScenario8 places them on a fresh sharded bed
// and drives the preload and churn phases with core's one run wrapper.
func storm(t *testing.T, cfg core.Scenario8Config) core.Scenario8Result {
	t.Helper()
	r, err := core.RunScenario8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPreloadThenChurn holds 300 idle connections and churns 20 ms of
// 10 k short flows/s over them: every offered flow completes, the
// server accepted exactly the flows the client finished (plus the idle
// population), nothing was deferred or refused, and a re-run is
// identical.
func TestPreloadThenChurn(t *testing.T) {
	cfg := core.Scenario8Config{Shards: 2, Conns: 300, Rate: 10_000, DurationNS: 20e6}
	r := storm(t, cfg)
	// Flow k comes due k/Rate into the phase; the 200th falls on the
	// phase end and is not offered.
	if want := uint64(cfg.Rate*float64(cfg.DurationNS)/1e9) - 1; r.Completed != want {
		t.Errorf("completed %d short flows, want the %d offered", r.Completed, want)
	}
	if served := r.Stats.Accepts - uint64(cfg.Conns); served != r.Completed {
		t.Errorf("server accepted %d churn flows, client completed %d", served, r.Completed)
	}
	if r.Deferred != 0 || r.Stats.SynDrops != 0 || r.Stats.AcceptOverflows != 0 {
		t.Errorf("moderate load was not served cleanly: deferred %d, syn drops %d, accept overflows %d",
			r.Deferred, r.Stats.SynDrops, r.Stats.AcceptOverflows)
	}
	if r.ChurnNS < cfg.DurationNS {
		t.Errorf("churn phase lasted %d ns, shorter than the %d ns offered", r.ChurnNS, cfg.DurationNS)
	}
	if again := storm(t, cfg); again != r {
		t.Errorf("re-run diverged:\n  first:  %+v\n  second: %+v", r, again)
	}
}

// TestChurnWithoutIdlePopulation skips the preload phase entirely.
func TestChurnWithoutIdlePopulation(t *testing.T) {
	r := storm(t, core.Scenario8Config{Shards: 1, Rate: 5_000, DurationNS: 10e6})
	if r.Completed != 49 || r.Deferred != 0 {
		t.Errorf("completed %d (deferred %d), want 49 and 0", r.Completed, r.Deferred)
	}
}

func TestNewChurnClientRejectsOversizedPreload(t *testing.T) {
	// One listen port spans 64 000 managed source ports.
	if _, err := app.NewChurnClient(fstack.IPv4Addr{}, 5801, 5901, 1, 64_001, 1000, 1e6); err == nil {
		t.Fatal("64 001 preload connections fit one port's source-port window")
	}
}

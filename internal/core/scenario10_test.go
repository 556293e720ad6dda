package core

import (
	"testing"

	"repro/internal/sim"
)

// s10TestConfig is a moderate fault storm: two faults against shard0
// well inside the measured window (seeded arrivals at ~139 ms and
// ~200 ms), light closed-loop load, three shards so the blast-radius
// assertion has two survivors to check.
func s10TestConfig(capMode bool, faults int) Scenario10Config {
	return Scenario10Config{
		Shards: 3, CapMode: capMode,
		Faults: faults, MTBFNS: 40e6,
		Conns: 2, DurationNS: 300e6,
	}
}

// TestScenario10Clean pins the fault-free reference: no faults means no
// supervisor, no losses, no resets — the fault plane must be inert.
func TestScenario10Clean(t *testing.T) {
	for _, capMode := range []bool{false, true} {
		r, err := RunScenario10(s10TestConfig(capMode, 0))
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed == 0 || r.Completed != r.Issued {
			t.Fatalf("cap=%v: issued %d, completed %d", capMode, r.Issued, r.Completed)
		}
		if r.Lost != 0 || r.Resets != 0 || r.Restarts != 0 || r.GiveUps != 0 {
			t.Fatalf("cap=%v: clean run saw faults: %+v", capMode, r)
		}
		if r.faultedDone == 0 || r.OtherMinDone == 0 {
			t.Fatalf("cap=%v: a shard served nothing: %+v", capMode, r)
		}
	}
}

// TestScenario10BlastRadiusContained is the capability-mode acceptance
// gate: faults aimed at shard0 cost shard0 requests and restarts, while
// every surviving shard's completions stay within 10% of the clean run.
func TestScenario10BlastRadiusContained(t *testing.T) {
	clean, err := RunScenario10(s10TestConfig(true, 0))
	if err != nil {
		t.Fatal(err)
	}
	storm, err := RunScenario10(s10TestConfig(true, 2))
	if err != nil {
		t.Fatal(err)
	}
	if storm.Faults != 2 {
		t.Fatalf("injected %d faults, want 2", storm.Faults)
	}
	// Contained blast radius: one restart per fault, nothing fate-shares.
	if storm.Restarts != storm.Faults || storm.GiveUps != 0 {
		t.Fatalf("restarts %d giveups %d, want %d/0", storm.Restarts, storm.GiveUps, storm.Faults)
	}
	// The faulted shard pays: lost requests, resets, a visible dip.
	if storm.Lost == 0 || storm.Resets == 0 {
		t.Fatalf("faulted shard lost %d / reset %d, want both nonzero", storm.Lost, storm.Resets)
	}
	if storm.faultedDone >= clean.faultedDone {
		t.Fatalf("faulted shard completed %d >= clean %d", storm.faultedDone, clean.faultedDone)
	}
	// The survivors do not: within 10% of the clean run.
	if 10*storm.OtherMinDone < 9*clean.OtherMinDone {
		t.Fatalf("surviving shard dipped past 10%%: storm %d vs clean %d",
			storm.OtherMinDone, clean.OtherMinDone)
	}
	// Every fault's recovery was observed, and MTTR is sane: positive,
	// bounded by detection (request timeout) + capped backoff + slack.
	if storm.Recovered != storm.Faults {
		t.Fatalf("recovered %d of %d faults", storm.Recovered, storm.Faults)
	}
	if storm.MTTRMeanNS <= 0 || storm.MTTRMaxNS < storm.MTTRMeanNS {
		t.Fatalf("implausible MTTR mean=%d max=%d", storm.MTTRMeanNS, storm.MTTRMaxNS)
	}
	if storm.MTTRMaxNS > s10TimeoutNS+s10MaxBackoffNS+100e6 {
		t.Fatalf("MTTR max %d ns beyond timeout+backoff budget", storm.MTTRMaxNS)
	}
}

// TestScenario10BaselineFateShares is the baseline acceptance gate: the
// monolithic stack restarts whole — every shard traps on every fault,
// so the supervisor restarts shards x faults times and even the
// non-targeted shards lose requests.
func TestScenario10BaselineFateShares(t *testing.T) {
	clean, err := RunScenario10(s10TestConfig(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	storm, err := RunScenario10(s10TestConfig(false, 2))
	if err != nil {
		t.Fatal(err)
	}
	if storm.Faults != 2 {
		t.Fatalf("injected %d faults, want 2", storm.Faults)
	}
	if want := storm.Faults * storm.Shards; storm.Restarts != want {
		t.Fatalf("restarts %d, want %d (every shard, every fault)", storm.Restarts, want)
	}
	// Fate sharing: the whole service dips, survivors included. The
	// per-fault outage is short (restart backoff + reset detection), so
	// the floor is modest — but a contained fault would leave the
	// non-targeted shards bit-identical, not merely close.
	if 50*storm.OtherMinDone >= 49*clean.OtherMinDone {
		t.Fatalf("baseline non-targeted shard only dipped from %d to %d, want > 2%%",
			clean.OtherMinDone, storm.OtherMinDone)
	}
	if storm.Completed >= clean.Completed {
		t.Fatalf("baseline storm completed %d >= clean %d", storm.Completed, clean.Completed)
	}
}

// TestScenario10Deterministic pins run-to-run determinism under the
// full storm machinery: crash, timeout reconnects, supervised restarts.
func TestScenario10Deterministic(t *testing.T) {
	for _, capMode := range []bool{false, true} {
		cfg := s10TestConfig(capMode, 2)
		a, err := RunScenario10(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunScenario10(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("cap=%v: identical configs diverged:\n  a: %+v\n  b: %+v", capMode, a, b)
		}
	}
}

// TestScenario10ParallelIdentical pins the host-parallelism contract on
// the four-cell grid: the formatted report is byte-identical whether
// the cells run sequentially or concurrently.
func TestScenario10ParallelIdentical(t *testing.T) {
	cfg := s10TestConfig(false, 2)
	grid := func(par int) (out []Scenario10Result) {
		withParallelism(par, func() {
			var err error
			if out, err = RunScenario10Sweep(cfg); err != nil {
				t.Fatal(err)
			}
		})
		return out
	}
	seq, par := grid(1), grid(4)
	if FormatScenario10(seq) != FormatScenario10(par) {
		t.Fatalf("sequential and parallel grids diverged:\n%s\nvs\n%s",
			FormatScenario10(seq), FormatScenario10(par))
	}
}

func TestScenario10RejectsBadConfig(t *testing.T) {
	cases := []Scenario10Config{
		{Shards: 0, Conns: 2, DurationNS: 1e6},
		{Shards: 2, Conns: 0, DurationNS: 1e6},
		{Shards: 2, Conns: 2, Faults: 1, MTBFNS: 0, DurationNS: 1e6},
	}
	for i, cfg := range cases {
		if _, err := NewScenario10(sim.NewVClock(), cfg); err == nil {
			t.Fatalf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}

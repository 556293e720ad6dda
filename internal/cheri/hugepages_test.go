package cheri_test

import (
	"testing"

	"repro/internal/cheri"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// maxDNSBedHugePages is what one machine of Scenario 9's DNS bed may
// back after a run, of the 25–27 it reserves: the hugepages its mbufs,
// descriptor rings and socket buffers are touched in (2 on each machine
// when this was written) and one more.
const maxDNSBedHugePages = 3

// TestScenario9DNSHugePages pins what a bed costs the host in memory:
// building and running Scenario 9's DNS bed — the rpc_dns benchmark
// workload's configuration at a test-sized duration — backs at most
// maxDNSBedHugePages hugepages per machine. A change that zeroes or
// touches whole machines again fails here by name.
func TestScenario9DNSHugePages(t *testing.T) {
	cfg := core.Scenario9Config{Proto: "dns", Shards: 2, CapMode: true, Rate: 40000, Conns: 256,
		DurationNS: 100e6, Link: netem.Config{LossRate: 0.002, DelayNS: 250e3, Seed: 1}}
	bed, err := core.NewScenario9(sim.NewVClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Scenario9Run(bed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("the run completed no query")
	}
	checkHugePages(t, bed, maxDNSBedHugePages)
}

// checkHugePages fails for every machine of bed that backs more than
// limit hugepages.
func checkHugePages(t *testing.T, bed *testbed.Bed, limit int) {
	t.Helper()
	names, machines := []string{"local"}, []*testbed.Machine{bed.Local}
	for _, p := range bed.Peers {
		names, machines = append(names, p.Env.Name), append(machines, p.M)
	}
	for i, m := range machines {
		mem := m.K.Mem
		reserved := (mem.Size() + cheri.HugePageSize - 1) / cheri.HugePageSize
		t.Logf("%s: %d of %d hugepages backed", names[i], mem.HugePages(), reserved)
		if got := mem.HugePages(); got > limit {
			t.Errorf("%s backs %d of its %d hugepages after the run, want at most %d", names[i], got, reserved, limit)
		}
	}
}

// maxChurnBedHugePages is what one machine of Scenario 8's churn bed may
// back after a run: the client parks ~rate × 2MSL connections in
// TIME_WAIT, which hold no socket rings (2 hugepages on each machine
// when this was written; 11 on the client while TIME_WAIT kept them).
const maxChurnBedHugePages = 3

// TestScenario8ChurnHugePages pins that a closed connection holds no
// segment memory: a 4-shard capability churn bed — the churn_25k
// benchmark workload's rate at a test-sized population and duration —
// backs at most maxChurnBedHugePages hugepages per machine.
func TestScenario8ChurnHugePages(t *testing.T) {
	cfg := core.Scenario8Config{Shards: 4, CapMode: true, Conns: 2000, Rate: 50000, DurationNS: 100e6}
	bed, err := core.NewScenario8(sim.NewVClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Scenario8Churn(bed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("the run completed no flow")
	}
	checkHugePages(t, bed, maxChurnBedHugePages)
}

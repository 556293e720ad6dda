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
	names, machines := []string{"local"}, []*testbed.Machine{bed.Local}
	for _, p := range bed.Peers {
		names, machines = append(names, p.Env.Name), append(machines, p.M)
	}
	for i, m := range machines {
		mem := m.K.Mem
		reserved := (mem.Size() + cheri.HugePageSize - 1) / cheri.HugePageSize
		t.Logf("%s: %d of %d hugepages backed", names[i], mem.HugePages(), reserved)
		if got := mem.HugePages(); got > maxDNSBedHugePages {
			t.Errorf("%s backs %d of its %d hugepages after the run, want at most %d", names[i], got, reserved, maxDNSBedHugePages)
		}
	}
}

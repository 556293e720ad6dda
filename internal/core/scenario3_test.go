package core

import (
	"testing"

	"repro/internal/sim"
)

func TestScenario3BandwidthMatchesSinglePort(t *testing.T) {
	// Future-work layout: DPDK split into its own compartment. Like the
	// other CHERI layouts, compartmentalization must cost no bandwidth.
	for _, dir := range []Direction{LocalIsServer, LocalIsClient} {
		s, err := NewScenario3(sim.NewVClock())
		if err != nil {
			t.Fatal(err)
		}
		res, err := BandwidthPair(s, dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v", res[0])
		if res[0].Mbps < 920 || res[0].Mbps > 950 {
			t.Errorf("scenario 3 %v = %.0f Mbit/s, want ≈941", dir, res[0].Mbps)
		}
	}
}

func TestScenario3DeviceGatesIsolate(t *testing.T) {
	s, err := NewScenario3(sim.NewVClock())
	if err != nil {
		t.Fatal(err)
	}
	stackCVM := s.Envs[0].CVM
	// The stack compartment drives no device of its own, and cannot
	// reach memory outside its window, where the driver's lives.
	if n := len(s.Envs[0].Devs); n != 0 {
		t.Fatalf("the stack compartment drives %d devices, want none", n)
	}
	if err := stackCVM.Load(stackCVM.Base()+stackCVM.Size(), make([]byte, 8)); err == nil {
		t.Fatal("stack compartment read past its window")
	}
	// Every stack iteration crosses the device gates.
	before := s.Local.IV.Crossings.Load()
	s.Envs[0].Stk.PollOnce()
	if s.Local.IV.Crossings.Load() <= before {
		t.Fatal("a stack poll did not cross into the DPDK compartment")
	}
}

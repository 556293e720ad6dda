package core

import (
	"maps"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// stackSources counts a trace's stack-layer events by source id.
func stackSources(t *testing.T, tr *obs.Trace) map[uint16]int {
	t.Helper()
	if tr.Total() != uint64(tr.Len()) {
		t.Fatalf("trace wrapped: %d events, %d kept", tr.Total(), tr.Len())
	}
	out := map[uint16]int{}
	for _, e := range tr.Snapshot() {
		if e.Type.Layer() == "fstack" {
			out[e.Src]++
		}
	}
	return out
}

// TestStackTraceSources pins the source id every stack records under —
// shard s is s, a single stack its environment's index, a peer's stack
// 128 + its port — by the stack-layer events each id carries on a traced
// 4-shard Scenario 4 bed and on Table II's dual-port bed.
func TestStackTraceSources(t *testing.T) {
	o := testbed.ObsSpec{TraceEvents: 1 << 18}
	_, s4 := runComposedObs(t, 4, layoutPlain, true, o)

	dual, err := testbed.Build(testbed.Spec{
		Clk:     sim.NewVClock(),
		Machine: testbed.MachineSpec{Name: "morello", Ports: 2, BusLimited: true},
		Compartments: []testbed.CompartmentSpec{
			{Name: "cvm1", CVM: true, Ifs: []testbed.IfSpec{{Port: 0}}},
			{Name: "cvm2", CVM: true, Ifs: []testbed.IfSpec{{Port: 1}}},
		},
		Peers: []testbed.PeerSpec{{Port: 0}, {Port: 1}},
		Obs:   o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runFlows(dual, "trace sources", tableFlows(dual, true), 20e6, bwDeadline); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		got  map[uint16]int
		want map[uint16]int
	}{
		{"scenario 4 x 4 shards", stackSources(t, s4.Trace), map[uint16]int{0: 560, 1: 560, 2: 560, 3: 576, 128: 22}},
		{"table II dual port", stackSources(t, dual.Obs.Trace), map[uint16]int{0: 814, 1: 814, 128: 5, 129: 5}},
	} {
		if !maps.Equal(tc.got, tc.want) {
			t.Errorf("%s: stack events by source %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

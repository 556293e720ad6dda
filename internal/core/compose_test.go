package core

import (
	"fmt"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// The paper's three isolation layouts, as axes set on Scenario 4's
// sharded compartment. layoutPlain is NewScenario4's own capability-mode
// bed: the un-gated control.
const (
	layoutPlain     = "un-gated"
	layoutAPIGated  = "API-gated"
	layoutDevGated  = "device-gated"
	composeDuration = int64(10e6)
	composeFlows    = 4
)

// newComposedBed builds Scenario 4's port and CPU-budgeted shards in
// capability mode with the given gate layout composed on.
func newComposedBed(clk hostos.Clock, shards int, layout string, o testbed.ObsSpec) (*Setup, error) {
	cs := testbed.CompartmentSpec{
		Name: "cvm1", CVM: true,
		SegBytes: s4SegSize, PoolBufs: s4PoolBufs,
		Ifs: []testbed.IfSpec{{Port: 0}},
		Stack: testbed.StackSpec{
			Shards: shards, RingSize: s4RingSize,
			CPUBps: s4CPUBps, Tuning: &fstack.TCPTuning{RTOMinNS: s4RTOMin},
		},
	}
	switch layout {
	case layoutAPIGated:
		cs.APIGate, cs.AppCVMs = true, []string{"app1"}
	case layoutDevGated:
		cs.DeviceGate = true
	}
	return testbed.Build(testbed.Spec{
		Clk: clk,
		Machine: testbed.MachineSpec{
			Name: "morello", Ports: 1,
			LineRateBps: s4LineRate, RxFifoBytes: s4RxFifoBytes,
		},
		Compartments: []testbed.CompartmentSpec{cs},
		Peers: []testbed.PeerSpec{{
			Port:  0,
			Stack: testbed.StackSpec{Tuning: &fstack.TCPTuning{RTOMinNS: s4RTOMin}},
		}},
		Obs: o,
	})
}

// composedRun is what one cell's run leaves behind.
type composedRun struct {
	reports    string
	sent       uint64 // uploads: bytes the local senders wrote
	received   uint64 // bytes the receivers read
	crossings  uint64
	frames     uint64 // frames the local shards moved, both ways
	frameBytes uint64 // their bytes, as the peer's device counted them
	shardRx    []uint64
}

func runComposed(t *testing.T, shards int, layout string, upload bool) composedRun {
	run, _ := runComposedObs(t, shards, layout, upload, testbed.ObsSpec{})
	return run
}

// runComposedObs is runComposed on an instrumented bed.
func runComposedObs(t *testing.T, shards int, layout string, upload bool, o testbed.ObsSpec) (composedRun, *obs.Obs) {
	t.Helper()
	s, err := newComposedBed(sim.NewVClock(), shards, layout, o)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	reps, err := runFlows(s, "compose", shardedFlows(s, composeFlows, s4BasePort, upload), composeDuration, bwDeadline)
	if err != nil {
		t.Fatal(err)
	}
	run := composedRun{reports: fmt.Sprint(reps), crossings: s.Local.IV.Crossings.Load()}
	for _, rep := range reps {
		run.sent += rep.local.Bytes
		run.received += rep.recv.Bytes
	}
	peer := s.Peers[0].Env.Devs[0].Stats()
	run.frameBytes = peer.IBytes + peer.OBytes
	for i := 0; i < shards; i++ {
		st := s.Sharded.Shards()[i].Stats()
		run.shardRx = append(run.shardRx, st.RxFrames)
		run.frames += st.RxFrames + st.TxFrames
	}
	return run, s.Obs
}

// TestShardsComposeWithGates is the proof that no layout is special:
// every gate layout builds over every shard count and carries traffic —
// every byte sent is received, every shard takes frames, gated layouts
// cross compartments and the un-gated control never does — and a cell
// re-run is the same run. It is also where isolation shows: a crossing
// costs the cores of the threads that run it, which are the cores the
// shards' CPU budget admits frames on, so every gated cell's goodput —
// bytes received from composeDuration of sending — reads strictly below
// its un-gated control's (cells run in layout order, the control first).
// At one shard the ratio is at or above what the cost table charges:
// 1 − (crossings × GateCallNS + the staging copy of what the apps wrote)
// ÷ the core time the frames took at s4CPUBps, their bytes and holds —
// every crossing counted as booked, though a refused or empty one books
// nothing.
func TestShardsComposeWithGates(t *testing.T) {
	type cell struct {
		shards int
		upload bool
	}
	control := map[cell]composedRun{}
	for _, layout := range []string{layoutPlain, layoutAPIGated, layoutDevGated} {
		for _, shards := range []int{1, 2, 4} {
			for _, upload := range []bool{true, false} {
				dir := map[bool]string{true: "upload", false: "download"}[upload]
				t.Run(fmt.Sprintf("%s/%d_shards/%s", layout, shards, dir), func(t *testing.T) {
					run := runComposed(t, shards, layout, upload)
					if run.received == 0 {
						t.Fatal("no bytes received")
					}
					// A download's sender is the peer, whose report the
					// flow driver does not keep; uploads check both ends.
					if upload && run.sent != run.received {
						t.Errorf("sent %d bytes, received %d", run.sent, run.received)
					}
					for i, rx := range run.shardRx {
						if rx == 0 {
							t.Errorf("shard %d received no frames", i)
						}
					}
					if gated := layout != layoutPlain; gated != (run.crossings > 0) {
						t.Errorf("%d compartment crossings on the %s layout", run.crossings, layout)
					}
					if again := runComposed(t, shards, layout, upload); fmt.Sprint(again) != fmt.Sprint(run) {
						t.Errorf("re-run differs:\n first  %+v\n second %+v", run, again)
					}
					ratio := "no control run"
					if layout == layoutPlain {
						control[cell{shards, upload}] = run
						ratio = "control"
					} else if plain, ok := control[cell{shards, upload}]; ok {
						r := float64(run.received) / float64(plain.received)
						ratio = fmt.Sprintf("goodput %.4f of un-gated", r)
						if r >= 1 {
							t.Errorf("gated cell received %d bytes, un-gated %d: isolation cost nothing", run.received, plain.received)
						}
						var rx uint64
						for _, n := range run.shardRx {
							rx += n
						}
						core := sim.BytesNS(int(run.frameBytes), s4CPUBps) + int64(rx)*sim.FrameHoldNS
						cost := int64(run.crossings)*sim.GateCallNS + sim.CopyNS(int(run.sent))
						bound := 1 - float64(cost)/float64(core)
						if shards == 1 && r < bound {
							t.Errorf("gated ÷ un-gated %.4f, below the cost table's %.4f", r, bound)
						}
						ratio += fmt.Sprintf(" (cost table: %.4f)", bound)
					}
					t.Logf("%d bytes, %d frames, %d crossings = %.2f per frame; %s",
						run.received, run.frames, run.crossings, float64(run.crossings)/float64(run.frames), ratio)
				})
			}
		}
	}
}

// TestDeviceGatedBedTracesDriverBursts: the driver device behind device
// gates is wired to the flight recorder like any other (it used to be
// skipped, being listed nowhere), on every queue, and tracing still
// changes nothing about the run.
func TestDeviceGatedBedTracesDriverBursts(t *testing.T) {
	plain := runComposed(t, 2, layoutDevGated, true)
	traced, o := runComposedObs(t, 2, layoutDevGated, true, testbed.ObsSpec{TraceEvents: 1 << 18})
	if fmt.Sprint(traced) != fmt.Sprint(plain) {
		t.Errorf("tracing changed the run:\n untraced %+v\n traced   %+v", plain, traced)
	}
	// Source 0 is the driver cVM's device, 1 the peer's.
	type burst struct {
		typ   obs.EventType
		queue int64
	}
	seen := map[burst]int{}
	for _, e := range o.Trace.Snapshot() {
		if (e.Type == obs.EvDevRxBurst || e.Type == obs.EvDevTxBurst) && e.Src == 0 {
			seen[burst{e.Type, e.C}]++
		}
	}
	for _, typ := range []obs.EventType{obs.EvDevRxBurst, obs.EvDevTxBurst} {
		for q := int64(0); q < 2; q++ {
			if seen[burst{typ, q}] == 0 {
				t.Errorf("no %v event from the driver device's queue %d", typ, q)
			}
		}
	}
}

package testbed

import (
	"math"
	"slices"
	"testing"

	"repro/internal/obs"
)

func TestZeroFaultSpecIsInert(t *testing.T) {
	bed, err := Build(minimalSpec())
	if err != nil {
		t.Fatal(err)
	}
	if bed.Faults != nil || bed.Super != nil {
		t.Fatal("zero FaultSpec wired a fault plane")
	}
	// The nil halves must be steppable and quiescent.
	bed.FaultStep(0)
	if d := bed.Faults.NextDeadline(0); d != math.MaxInt64 {
		t.Fatalf("nil plane deadline = %d", d)
	}
	if d := bed.Super.NextDeadline(0); d != math.MaxInt64 {
		t.Fatalf("nil supervisor deadline = %d", d)
	}
}

func TestFaultSpecValidation(t *testing.T) {
	s := minimalSpec()
	s.Faults.CapFaults = []CapFaultSpec{{Env: "nosuch", At: []int64{1}}}
	wantBuildError(t, s, "unknown compartment")

	s = minimalSpec()
	s.Faults.NICFaults = []NICFaultSpec{{Env: "proc", StallAt: 100, ResumeAt: 50}}
	wantBuildError(t, s, "resume")

	s = minimalSpec()
	s.Faults.LinkFlaps = []LinkFlapSpec{{Peer: "peer0", Toggles: []int64{1}}}
	wantBuildError(t, s, "plain wire")

	s = minimalSpec()
	s.Faults.LinkFlaps = []LinkFlapSpec{{Peer: "ghost", Toggles: []int64{1}}}
	wantBuildError(t, s, "unknown peer")
}

// TestNICFaultReachesGatedDriver: a device-gated environment lists no
// device (its driver sits in another cVM), yet a NIC fault aimed at it
// fires on that driver — on a sharded one, on the queue named — at its
// instant, as the flight recorder shows.
func TestNICFaultReachesGatedDriver(t *testing.T) {
	s := minimalSpec()
	s.Compartments[0].CVM = true
	s.Compartments[0].DeviceGate = true
	s.Compartments[0].Stack.Shards = 2
	s.Faults.NICFaults = []NICFaultSpec{{Env: "proc", Queue: 1, StallAt: 100, ResumeAt: 200, DMAFaultAt: 100, DMAFaults: 3}}
	s.Obs.TraceEvents = 64
	bed, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bed.Envs[0].Devs); n != 0 {
		t.Fatalf("device-gated environment lists %d devices", n)
	}
	bed.FaultStep(99)
	bed.FaultStep(100)
	var fired [][3]int64 // at, kind, queue
	for _, e := range bed.Obs.Trace.Snapshot() {
		if e.Type == obs.EvFault {
			fired = append(fired, [3]int64{e.TS, e.A, e.C})
		}
	}
	want := [][3]int64{{100, obs.FaultNICStall, 1}, {100, obs.FaultDMA, 1}}
	if !slices.Equal(fired, want) {
		t.Fatalf("NIC faults fired %v, want %v", fired, want)
	}
}

func TestCapFaultTrapAndSupervisedRestart(t *testing.T) {
	s := minimalSpec()
	s.Compartments[0].CVM = true
	s.Faults.CapFaults = []CapFaultSpec{{Env: "proc", At: []int64{1000}}}
	s.Faults.Restart = RestartSpec{BackoffNS: 500, MaxBackoffNS: 500, MaxRetries: 3}
	bed, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	env := bed.Envs[0]
	var hooked int64
	bed.RestartHook = func(e *Env, now int64) {
		if e != env {
			t.Errorf("hook for wrong env %q", e.Name)
		}
		hooked = now
	}

	if d := bed.Faults.NextDeadline(0); d != 1000 {
		t.Fatalf("fault scheduled at %d, want 1000", d)
	}
	bed.FaultStep(1000)
	if !env.CVM.Trapped() || !env.Stk.Down() {
		t.Fatalf("after injection: trapped=%v down=%v", env.CVM.Trapped(), env.Stk.Down())
	}
	if d := bed.Super.NextDeadline(1000); d != 1500 {
		t.Fatalf("restart scheduled at %d, want 1500", d)
	}
	bed.FaultStep(1500)
	if env.CVM.Trapped() || env.Stk.Down() {
		t.Fatalf("after restart: trapped=%v down=%v", env.CVM.Trapped(), env.Stk.Down())
	}
	if hooked != 1500 || bed.Super.Restarts != 1 {
		t.Fatalf("hook at %d, restarts %d", hooked, bed.Super.Restarts)
	}
}

func TestFateSharingTrapsEveryEnv(t *testing.T) {
	s := minimalSpec()
	s.Compartments = []CompartmentSpec{
		{Name: "shard0", Ifs: []IfSpec{{Port: 0}}},
		{Name: "shard1", Ifs: []IfSpec{{Port: 1}}},
	}
	s.Faults.CapFaults = []CapFaultSpec{{Env: "shard0", At: []int64{100}}}
	s.Faults.Restart = RestartSpec{BackoffNS: 10, MaxBackoffNS: 10, MaxRetries: 1, FateSharing: true}
	bed, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	bed.FaultStep(100)
	for _, e := range bed.Envs {
		if !e.Stk.Down() {
			t.Fatalf("fate sharing: %s survived a fault aimed at shard0", e.Name)
		}
	}
	bed.FaultStep(110)
	for _, e := range bed.Envs {
		if e.Stk.Down() {
			t.Fatalf("%s not restarted", e.Name)
		}
	}
	if bed.Super.Restarts != 2 {
		t.Fatalf("restarts = %d, want both envs", bed.Super.Restarts)
	}
}

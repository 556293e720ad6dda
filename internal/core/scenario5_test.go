package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fstack"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// frameTrace records what every stack of a bed puts on and takes off
// the wire, through the ports' delivery taps and the stacks' counters:
// per port, a fingerprint of each frame delivered to it (virtual
// arrival instant, length, content hash) in arrival order; per stack,
// its frame counters at every driver visit at which they moved.
type frameTrace struct {
	stacks []*fstack.Stack
	last   []fstack.StackStats
	// traces holds the ports' traces (local ports in order, then each
	// peer's), then the stacks' (in Loops order).
	traces [][]string
}

// traceFrames taps every port of s and records its stacks' counters at
// each visit; the caller routes the driver's visit hook to visit.
func traceFrames(s *Setup) *frameTrace {
	var ports []*nic.Port
	for i := range s.Local.Card.Ports() {
		ports = append(ports, s.Local.Card.Port(i))
	}
	for _, p := range s.Peers {
		ports = append(ports, p.M.Card.Port(0))
	}
	stacks := s.Loops()
	tr := &frameTrace{stacks: stacks, last: make([]fstack.StackStats, len(stacks)), traces: make([][]string, len(ports)+len(stacks))}
	for i, p := range ports {
		p.SetRxTap(func(tsNS int64, data []byte) {
			h := fnv.New64a()
			h.Write(data)
			tr.traces[i] = append(tr.traces[i], fmt.Sprintf("%d %d %x", tsNS, len(data), h.Sum64()))
		})
	}
	return tr
}

// visit notes every stack whose frame counters moved since its last note.
func (tr *frameTrace) visit(now int64) {
	for i, stk := range tr.stacks {
		st := stk.Stats()
		if st.RxFrames != tr.last[i].RxFrames || st.TxFrames != tr.last[i].TxFrames {
			k := len(tr.traces) - len(tr.stacks) + i
			tr.traces[k] = append(tr.traces[k], fmt.Sprintf("%d rx %d tx %d", now, st.RxFrames, st.TxFrames))
			tr.last[i] = st
		}
	}
}

// frames is how many frames the stacks moved: each one counted by the
// stack that sent it and by the stack that took it in.
func (tr *frameTrace) frames() int {
	n := 0
	for _, stk := range tr.stacks {
		st := stk.Stats()
		n += int(st.RxFrames + st.TxFrames)
	}
	return n
}

// runTransparencyRig runs one fixed 100 ms iperf transfer over either a
// plain wire or a pristine netem link and returns the bed's frame
// traces.
func runTransparencyRig(t *testing.T, linked bool) [][]string {
	t.Helper()
	// Pin the peer sizing so both rigs differ ONLY in the conduit (a
	// link implies the big sizing by default).
	peer := testbed.PeerSpec{Port: 0, SegBytes: testbed.DefaultSegBytes, PoolBufs: testbed.DefaultPoolBufs}
	if linked {
		// A pristine netem link in place of the wire.
		peer.Link = &testbed.LinkSpec{}
	}
	bed, err := testbed.Build(testbed.Spec{
		Clk:     sim.NewVClock(),
		Machine: testbed.MachineSpec{Name: "morello", Ports: 1},
		Compartments: []testbed.CompartmentSpec{
			{Name: "proc", Ifs: []testbed.IfSpec{{Port: 0}}},
		},
		Peers: []testbed.PeerSpec{peer},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := traceFrames(bed)
	visitHook = func(now int64, _ bool) { tr.visit(now) }
	defer func() { visitHook = nil }()
	if _, err := runFlows(bed, "transparency rig", wanUpload(bed, iperfPort), 100e6, bwDeadline); err != nil {
		t.Fatal(err)
	}
	if tr.frames() == 0 {
		t.Fatal("the stacks moved no frames")
	}
	return tr.traces
}

// TestNetemPassThroughTransparent is the Scenario 1-4 safety assertion:
// a netem.Link with a zero Config must be indistinguishable from the
// plain wire — every frame byte-identical at the same virtual instant,
// and every stack sending and taking it in at the same instants.
func TestNetemPassThroughTransparent(t *testing.T) {
	wire := runTransparencyRig(t, false)
	link := runTransparencyRig(t, true)
	n := 0
	for k := range wire {
		if len(wire[k]) != len(link[k]) {
			t.Fatalf("trace %d lengths differ: wire %d, pristine link %d", k, len(wire[k]), len(link[k]))
		}
		for i := range wire[k] {
			if wire[k][i] != link[k][i] {
				t.Fatalf("trace %d entry %d differs:\n  wire: %s\n  link: %s", k, i, wire[k][i], link[k][i])
			}
		}
		n += len(wire[k])
	}
	t.Logf("traces identical over %d entries", n)
}

// s5TestLossyLink is the acceptance link: 100 Mbit/s bottleneck,
// 20 ms RTT, ~1 % stationary loss arriving in millisecond fades
// (Gilbert–Elliott — the pattern real WAN paths exhibit and the
// regime RFC 2018 was designed for).
var s5TestLossyLink = netem.Config{
	GEBadProb: 0.00033, GERecoverProb: 0.033,
	DelayNS: 10e6, RateBps: 100e6,
}

// TestScenario5SACKBeatsGoBackN is the tentpole acceptance gate: on the
// seeded 1 % loss, 20 ms RTT link, the SACK stack's goodput must be at
// least twice the go-back-N stack's, at equal link settings, in both
// Baseline and capability mode.
func TestScenario5SACKBeatsGoBackN(t *testing.T) {
	for _, capMode := range []bool{false, true} {
		var mbps [2]float64
		for i, modern := range []bool{false, true} {
			r, err := RunScenario5(Scenario5Config{CapMode: capMode, Modern: modern, Link: s5TestLossyLink}, 1000e6)
			if err != nil {
				t.Fatalf("cap=%v modern=%v: %v", capMode, modern, err)
			}
			mbps[i] = r.Mbps
			t.Logf("cap=%v modern=%v: %.1f Mbit/s [%s]", capMode, modern, r.Mbps, r.Stats.RecoverySummary())
		}
		if mbps[1] < 2*mbps[0] {
			t.Fatalf("cap=%v: SACK %.1f Mbit/s < 2x go-back-N %.1f Mbit/s", capMode, mbps[1], mbps[0])
		}
	}
}

// TestScenario5WindowScalingHighBDP asserts the RFC 7323 half of the
// upgrade: on a 100 Mbit/s x 50 ms (one-way) path, the window-scaled
// stack sustains well past the 64 KiB-per-RTT ceiling an unscaled
// window allows, in both Baseline and capability mode — and the
// unscaled stack demonstrably sits under that ceiling.
func TestScenario5WindowScalingHighBDP(t *testing.T) {
	link := netem.Config{DelayNS: 50e6, RateBps: 100e6}
	rttS := float64(2*link.DelayNS) / 1e9
	unscaledCeiling := 65536 * 8 / rttS / 1e6 // Mbit/s at 64 KiB per RTT
	for _, capMode := range []bool{false, true} {
		gbn, err := RunScenario5(Scenario5Config{CapMode: capMode, Link: link}, 1500e6)
		if err != nil {
			t.Fatalf("cap=%v gbn: %v", capMode, err)
		}
		mod, err := RunScenario5(Scenario5Config{CapMode: capMode, Modern: true, Link: link}, 1500e6)
		if err != nil {
			t.Fatalf("cap=%v modern: %v", capMode, err)
		}
		t.Logf("cap=%v: unscaled %.1f, scaled %.1f Mbit/s (64KiB/RTT ceiling %.1f)",
			capMode, gbn.Mbps, mod.Mbps, unscaledCeiling)
		if gbn.Mbps > unscaledCeiling {
			t.Errorf("cap=%v: unscaled stack %.1f Mbit/s exceeds its own 64 KiB/RTT ceiling %.1f",
				capMode, gbn.Mbps, unscaledCeiling)
		}
		if mod.Mbps < 3*unscaledCeiling {
			t.Errorf("cap=%v: window scaling sustains only %.1f Mbit/s, want > 3x the 64 KiB/RTT ceiling %.1f",
				capMode, mod.Mbps, unscaledCeiling)
		}
	}
}

// TestScenario5RecoveryBreakdownVisible pins the observability
// satellite: a lossy run's result must carry a nonzero retransmit
// breakdown, and the formatted summary must include it.
func TestScenario5RecoveryBreakdownVisible(t *testing.T) {
	s, err := NewScenario5(sim.NewVClock(), Scenario5Config{Modern: true, Link: s5TestLossyLink})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Scenario5Bandwidth(s, 500e6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Retransmit == 0 || r.Stats.SACKRetransmit == 0 || r.Stats.DupAcks == 0 {
		t.Fatalf("lossy run shows no recovery activity: %+v", r.Stats)
	}
	if r.Stats.Retransmit != r.Stats.FastRetransmit+r.Stats.SACKRetransmit+r.Stats.RTORetransmit {
		t.Fatalf("breakdown does not sum to total: %s", r.Stats.RecoverySummary())
	}
	out := FormatScenario5("test", []Scenario5Result{r})
	for _, want := range []string{"retx", "dup-acks", "SACK+WS"} {
		if !containsStr(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if s.Links[0].Stats(0).Lost() == 0 {
		t.Fatal("link accounting recorded no loss on a lossy run")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

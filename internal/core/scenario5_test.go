package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fstack"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// traceTap records a fingerprint of every frame crossing a stack:
// direction, virtual timestamp, length and a content hash.
type traceTap struct {
	events []string
}

func (t *traceTap) Frame(dir fstack.TapDir, tsNS int64, data []byte) {
	h := fnv.New64a()
	h.Write(data)
	t.events = append(t.events, fmt.Sprintf("%d %d %d %x", dir, tsNS, len(data), h.Sum64()))
}

// runTransparencyRig runs one fixed 100 ms iperf transfer over either a
// plain wire or a pristine netem link and returns the local stack's
// frame trace.
func runTransparencyRig(t *testing.T, linked bool) []string {
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
	env := bed.Envs[0]
	tap := &traceTap{}
	env.Stk.SetTap(tap)

	if _, err := runFlows(bed, "transparency rig", wanUpload(bed, iperfPort), 100e6, bwDeadline); err != nil {
		t.Fatal(err)
	}
	if len(tap.events) == 0 {
		t.Fatal("tap recorded nothing")
	}
	return tap.events
}

// TestNetemPassThroughTransparent is the Scenario 1-4 safety assertion:
// a netem.Link with a zero Config must be indistinguishable from the
// plain wire — every frame byte-identical at the same virtual instant.
func TestNetemPassThroughTransparent(t *testing.T) {
	wire := runTransparencyRig(t, false)
	link := runTransparencyRig(t, true)
	if len(wire) != len(link) {
		t.Fatalf("trace lengths differ: wire %d frames, pristine link %d", len(wire), len(link))
	}
	for i := range wire {
		if wire[i] != link[i] {
			t.Fatalf("frame %d differs:\n  wire: %s\n  link: %s", i, wire[i], link[i])
		}
	}
	t.Logf("traces identical over %d frames", len(wire))
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
	r, err := RunScenario5(Scenario5Config{Modern: true, Link: s5TestLossyLink}, 500e6)
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
	if r.Fwd.Lost() == 0 {
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

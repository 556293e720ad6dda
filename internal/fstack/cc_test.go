package fstack

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// ccConn builds a connection running the named algorithm the way every
// connection is built (newTCPConn off a stack tuned to it), with
// window scaling offered when wscale is nonzero, and returns the clock
// its CUBIC epoch reads.
func ccConn(t *testing.T, algo string, wscale uint8) (*tcpConn, *sim.VClock) {
	t.Helper()
	clk := sim.NewVClock()
	s := &Stack{clk: clk}
	if err := s.SetTCPTuning(TCPTuning{Congestion: algo, WindowScale: wscale}); err != nil {
		t.Fatal(err)
	}
	return s.newTCPConn(fourTuple{}), clk
}

// TestRenoTraceMatchesPreRefactor replays a recorded ACK/loss event
// sequence on a Reno connection and checks every cwnd/ssthresh value
// against the numbers the pre-refactor inline arithmetic produced (each
// expectation below is hand-computed from the formulas that lived in
// tcpconn.go: init 10·MSS / 256 KiB, slow start += min(acked, MSS),
// AIMD += max(1, MSS²/cwnd), enterRecovery ssthresh = max(pipe/2,
// 2·MSS) with the +3·MSS NewReno inflation, partial-ACK deflation,
// exit cwnd = ssthresh, RTO collapse to one MSS). No value may move,
// which is what keeps the Scenario 1-6 goldens and Table II
// byte-identical.
func TestRenoTraceMatchesPreRefactor(t *testing.T) {
	c, clk := ccConn(t, "", 0)
	steps := []struct {
		name        string
		event       func()
		cwnd, ssthr uint32
	}{
		{"init", func() {}, 14480, 262144},
		{"slow start full ack", func() { clk.Set(1); c.ccAck(1448) }, 15928, 262144},
		{"slow start capped at one MSS", func() { clk.Set(2); c.ccAck(4000) }, 17376, 262144},
		{"slow start partial segment", func() { clk.Set(3); c.ccAck(100) }, 17476, 262144},
		{"enter recovery (no SACK)", func() { c.ccEnterRecovery(20000) }, 14344, 10000},
		{"dup-ack inflation", func() { c.ccDupAck() }, 15792, 10000},
		{"dup-ack inflation again", func() { c.ccDupAck() }, 17240, 10000},
		{"partial-ack deflation", func() { c.ccPartialAck(2896) }, 15792, 10000},
		{"full ack exits recovery", func() { c.ccExitRecovery() }, 10000, 10000},
		{"AIMD at ssthresh", func() { clk.Set(6); c.ccAck(1448) }, 10209, 10000},
		{"RTO collapse", func() { c.ccRTO(5000) }, 1448, 2896},
		{"slow start restart", func() { clk.Set(8); c.ccAck(1448) }, 2896, 2896},
		{"AIMD after restart", func() { clk.Set(9); c.ccAck(1448) }, 3620, 2896},
		{"enter recovery (SACK: no inflation)", func() { c.sackOK = true; c.ccEnterRecovery(7000) }, 3500, 3500},
	}
	for _, s := range steps {
		s.event()
		if c.cwnd != s.cwnd || c.ssthresh != s.ssthr {
			t.Fatalf("%s: cwnd=%d ssthresh=%d, want %d/%d",
				s.name, c.cwnd, c.ssthresh, s.cwnd, s.ssthr)
		}
	}
	if c.cold != nil {
		t.Fatal("a Reno connection took a cold record for its congestion control")
	}
}

// TestRenoUnboundedSlowStart pins the window-scaling init: ssthresh
// starts effectively unbounded (RFC 5681 §3.1) exactly as the old
// inline code did.
func TestRenoUnboundedSlowStart(t *testing.T) {
	c, _ := ccConn(t, CCReno, 7)
	if c.ssthresh != 1<<30 {
		t.Fatalf("unbounded ssthresh = %d, want %d", c.ssthresh, 1<<30)
	}
}

const cubicMSS = 1448

// cubicInCA returns a CUBIC connection in congestion avoidance with the
// given window (segments) as its last loss plateau: a SACK loss event
// at wSeg followed by the recovery exit.
func cubicInCA(t *testing.T, wSeg int) (*tcpConn, *sim.VClock) {
	c, clk := ccConn(t, CCCubic, 0)
	c.sackOK = true
	c.cwnd = uint32(wSeg * cubicMSS)
	c.ccEnterRecovery(wSeg * cubicMSS)
	c.ccExitRecovery()
	return c, clk
}

// ackAt delivers a congestion-avoidance ACK of one MSS at now with the
// smoothed RTT srtt.
func ackAt(c *tcpConn, clk *sim.VClock, now, srtt int64) {
	clk.Set(now)
	c.srtt = srtt
	c.ccAck(cubicMSS)
}

// TestCubicK checks the epoch period against RFC 8312 §4.1's formula:
// K = cbrt(W_max·(1-β)/C). For W_max = 100 segments, K =
// cbrt(100·0.3/0.4) = cbrt(75) ≈ 4.217 s.
func TestCubicK(t *testing.T) {
	c, clk := cubicInCA(t, 100)
	// First congestion-avoidance ACK opens the epoch and computes K.
	ackAt(c, clk, 1e9, 100e6)
	e := &c.cold.cubic
	want := math.Cbrt(100 * (1 - cubicBeta) / cubicC)
	if math.Abs(e.k-want) > 1e-9 {
		t.Fatalf("K = %.6f s, want %.6f s", e.k, want)
	}
	if math.Abs(want-4.2172) > 1e-3 {
		t.Fatalf("reference K moved: %.4f", want) // guards the test itself
	}
	// At the plateau (t = K) the cubic target is W_max again: after K
	// seconds the window must have grown back to ~W_max but not far
	// past it (concave approach, RFC 8312 §4.3).
	c.cwnd = 90 * cubicMSS // below the plateau, inside the concave region
	ackAt(c, clk, e.epochStart+int64(e.k*1e9), 100e6)
	target := float64(e.wMax + cubicC*math.Pow(e.k+0.1-e.k, 3)) // W_cubic(t+RTT) at t=K
	if got := float64(c.cwnd) / cubicMSS; got > target+1 {
		t.Fatalf("window overshot the plateau: %.1f segs, cubic target %.1f", got, target)
	}
}

// TestCubicTCPFriendlyRegion checks the §4.2 crossover: with a small
// W_max the early cubic curve sits below the AIMD estimate W_est(t) =
// W_max·β + 3(1-β)/(1+β)·t/RTT, and cwnd must track W_est instead of
// the flat cubic plateau; with a large W_max the cubic curve is above
// W_est and growth follows the cubic target.
func TestCubicTCPFriendlyRegion(t *testing.T) {
	const rttNS = 100e6
	// Small plateau: W_max = 10. At t = 1 s, W_cubic ≈ 9.65 while
	// W_est = 7 + 0.529·10 ≈ 12.3 — friendly region, but the tracking
	// is paced: one ACK moves cwnd at most one MSS toward W_est, so an
	// ACK-free second cannot burst the accrued estimate at once.
	c, clk := cubicInCA(t, 10)
	ackAt(c, clk, 1e9, rttNS) // open the epoch
	before := c.cwnd
	ackAt(c, clk, 2e9, rttNS) // t = 1 s into it, far below W_est
	if inc := c.cwnd - before; inc != cubicMSS {
		t.Fatalf("friendly region: per-ACK increment %d, want one MSS", inc)
	}
	// Repeated ACKs converge on W_est and stop there.
	wantEst := 10*cubicBeta + cubicFriendlyGain*(1.0/0.1)
	for i := 0; i < 20; i++ {
		ackAt(c, clk, 2e9, rttNS)
	}
	got := float64(c.cwnd) / cubicMSS
	if got < wantEst-0.1 || got > wantEst+1 {
		t.Fatalf("friendly region: cwnd %.2f segs did not converge on W_est %.2f", got, wantEst)
	}

	// Large plateau: W_max = 1000. At t = 1 s, W_cubic ≈ 1000 -
	// 0.4·(K-1)³ ≈ 788 while W_est ≈ 705 — cubic region, so growth is
	// the bounded per-ACK climb toward the target, not a jump to W_est.
	c, clk = cubicInCA(t, 1000)
	ackAt(c, clk, 1e9, rttNS)
	before = c.cwnd
	ackAt(c, clk, 2e9, rttNS)
	inc := c.cwnd - before
	if inc <= 0 || inc > cubicMSS {
		t.Fatalf("cubic region: per-ACK increment %d outside (0, MSS]", inc)
	}
}

// TestCubicFastConvergence checks §4.6: when loss events arrive with a
// declining window (a competitor took bandwidth), the recorded plateau
// is shrunk below the current window — W_max = cwnd·(1+β)/2 — so the
// flow releases its share faster. A loss at a grown window records the
// plateau verbatim instead.
func TestCubicFastConvergence(t *testing.T) {
	c, _ := ccConn(t, CCCubic, 0)
	c.sackOK = true
	c.cwnd = 1000 * cubicMSS
	c.ccEnterRecovery(0)
	e := &c.cold.cubic
	if e.wMax != 1000 || e.wLastMax != 1000 {
		t.Fatalf("first loss: wMax=%.0f wLastMax=%.0f, want 1000/1000", e.wMax, e.wLastMax)
	}
	if c.ssthresh != uint32(1000*cubicMSS*cubicBeta) {
		t.Fatalf("ssthresh = %d, want 0.7 cwnd = %d", c.ssthresh, int(1000*cubicMSS*cubicBeta))
	}
	// Second loss below the last plateau: fast convergence shrinks.
	c.cwnd = 700 * cubicMSS
	c.ccEnterRecovery(0)
	wantWMax := 700 * (1 + cubicBeta) / 2
	if math.Abs(e.wMax-wantWMax) > 1e-9 || e.wLastMax != 700 {
		t.Fatalf("declining loss: wMax=%.2f wLastMax=%.0f, want %.2f/700", e.wMax, e.wLastMax, wantWMax)
	}
	// A loss at a window that grew past the plateau records it as-is.
	c.cwnd = 900 * cubicMSS
	c.ccEnterRecovery(0)
	if e.wMax != 900 || e.wLastMax != 900 {
		t.Fatalf("grown loss: wMax=%.0f wLastMax=%.0f, want 900/900", e.wMax, e.wLastMax)
	}
}

// TestCubicRTOCollapse pins the timeout path: window to one MSS,
// ssthresh to β·cwnd, epoch reset so the next avoidance ACK restarts
// the clock.
func TestCubicRTOCollapse(t *testing.T) {
	c, clk := cubicInCA(t, 100)
	ackAt(c, clk, 1e9, 100e6) // open an epoch
	if c.cold.cubic.epochStart == 0 {
		t.Fatal("epoch never opened")
	}
	c.cwnd = 80 * cubicMSS
	clk.Set(2e9)
	c.ccRTO(0)
	if c.cwnd != cubicMSS {
		t.Fatalf("post-RTO cwnd = %d, want one MSS", c.cwnd)
	}
	if c.ssthresh != uint32(80*cubicMSS*cubicBeta) {
		t.Fatalf("post-RTO ssthresh = %d, want %d", c.ssthresh, int(80*cubicMSS*cubicBeta))
	}
	if c.cold.cubic.epochStart != 0 {
		t.Fatal("epoch not reset by the RTO")
	}
}

// TestCubicConvexStartWithoutLoss pins §4.8's no-loss case: when
// congestion avoidance begins by crossing ssthresh (no congestion
// event yet), the cubic origin is the current window with K = 0, so
// growth starts in the convex region immediately — a computed K would
// freeze the window for seconds below a plateau it already holds.
func TestCubicConvexStartWithoutLoss(t *testing.T) {
	c, clk := ccConn(t, CCCubic, 0) // ssthresh 256 KiB, never any loss
	c.cwnd = c.ssthresh             // slow start just crossed into avoidance
	ackAt(c, clk, 1e9, 100e6)
	if c.cold.cubic.k != 0 {
		t.Fatalf("no-loss epoch computed K = %.3f s, want 0", c.cold.cubic.k)
	}
	before := c.cwnd
	ackAt(c, clk, 2e9, 100e6) // one second into the epoch
	if c.cwnd <= before {
		t.Fatalf("window frozen after a loss-free avoidance entry (cwnd %d)", c.cwnd)
	}
}

// TestCongestionControllerRegistry pins name resolution: the empty
// string and "reno" select Reno, "cubic" selects RFC 8312, and a
// connection is built with the algorithm its stack's tuning names;
// anything else is refused before a connection exists.
func TestCongestionControllerRegistry(t *testing.T) {
	for _, r := range []struct {
		name string
		want ccAlgo
	}{{"", ccReno}, {CCReno, ccReno}, {CCCubic, ccCubic}} {
		if c, _ := ccConn(t, r.name, 0); c.cc != r.want {
			t.Fatalf("%q: built a connection running algorithm %d, want %d", r.name, c.cc, r.want)
		}
	}
	if err := (&Stack{}).SetTCPTuning(TCPTuning{Congestion: "vegas"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if ValidCongestion("vegas") || !ValidCongestion("") || !ValidCongestion(CCCubic) {
		t.Fatal("ValidCongestion disagrees with the registry")
	}
}

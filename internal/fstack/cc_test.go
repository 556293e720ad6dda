package fstack

import (
	"math"
	"testing"
)

// TestRenoTraceMatchesPreRefactor replays a recorded ACK/loss event
// sequence against renoCC and checks every cwnd/ssthresh value against
// the numbers the pre-refactor inline arithmetic produced (each
// expectation below is hand-computed from the formulas that lived in
// tcpconn.go: init 10·MSS / 256 KiB, slow start += min(acked, MSS),
// AIMD += max(1, MSS²/cwnd), enterRecovery ssthresh = max(pipe/2,
// 2·MSS) with the +3·MSS NewReno inflation, partial-ACK deflation,
// exit cwnd = ssthresh, RTO collapse to one MSS). The seam must not
// change a single value, which is what keeps the Scenario 1-6 goldens
// and Table II byte-identical.
func TestRenoTraceMatchesPreRefactor(t *testing.T) {
	const mss = 1448
	cc := &renoCC{}
	steps := []struct {
		name        string
		event       func()
		cwnd, ssthr int
	}{
		{"init", func() { cc.OnInit(mss, false) }, 14480, 262144},
		{"slow start full ack", func() { cc.OnAck(1448, 1, 0) }, 15928, 262144},
		{"slow start capped at one MSS", func() { cc.OnAck(4000, 2, 0) }, 17376, 262144},
		{"slow start partial segment", func() { cc.OnAck(100, 3, 0) }, 17476, 262144},
		{"enter recovery (no SACK)", func() { cc.OnEnterRecovery(20000, false, 4) }, 14344, 10000},
		{"dup-ack inflation", func() { cc.OnDupAck() }, 15792, 10000},
		{"dup-ack inflation again", func() { cc.OnDupAck() }, 17240, 10000},
		{"partial-ack deflation", func() { cc.OnPartialAck(2896) }, 15792, 10000},
		{"full ack exits recovery", func() { cc.OnExitRecovery(5) }, 10000, 10000},
		{"AIMD at ssthresh", func() { cc.OnAck(1448, 6, 0) }, 10209, 10000},
		{"RTO collapse", func() { cc.OnRTO(5000, 7) }, 1448, 2896},
		{"slow start restart", func() { cc.OnAck(1448, 8, 0) }, 2896, 2896},
		{"AIMD after restart", func() { cc.OnAck(1448, 9, 0) }, 3620, 2896},
		{"enter recovery (SACK: no inflation)", func() { cc.OnEnterRecovery(7000, true, 10) }, 3500, 3500},
	}
	for _, s := range steps {
		s.event()
		if cc.Cwnd() != s.cwnd || cc.ssthresh != s.ssthr {
			t.Fatalf("%s: cwnd=%d ssthresh=%d, want %d/%d",
				s.name, cc.Cwnd(), cc.ssthresh, s.cwnd, s.ssthr)
		}
	}
}

// TestRenoUnboundedSlowStart pins the window-scaling init: ssthresh
// starts effectively unbounded (RFC 5681 §3.1) exactly as the old
// inline code did.
func TestRenoUnboundedSlowStart(t *testing.T) {
	cc := &renoCC{}
	cc.OnInit(1448, true)
	if cc.ssthresh != 1<<30 {
		t.Fatalf("unbounded ssthresh = %d, want %d", cc.ssthresh, 1<<30)
	}
}

const cubicMSS = 1448

// cubicInCA puts a cubicCC into congestion avoidance with the given
// window (segments) as its last loss plateau: a loss event at wSeg
// followed by the recovery exit.
func cubicInCA(wSeg int) *cubicCC {
	cc := &cubicCC{}
	cc.OnInit(cubicMSS, false)
	cc.cwnd = wSeg * cubicMSS
	cc.OnEnterRecovery(wSeg*cubicMSS, true, 0)
	cc.OnExitRecovery(0)
	return cc
}

// TestCubicK checks the epoch period against RFC 8312 §4.1's formula:
// K = cbrt(W_max·(1-β)/C). For W_max = 100 segments, K =
// cbrt(100·0.3/0.4) = cbrt(75) ≈ 4.217 s.
func TestCubicK(t *testing.T) {
	cc := cubicInCA(100)
	// First congestion-avoidance ACK opens the epoch and computes K.
	cc.OnAck(cubicMSS, 1e9, 100e6)
	want := math.Cbrt(100 * (1 - cubicBeta) / cubicC)
	if math.Abs(cc.k-want) > 1e-9 {
		t.Fatalf("K = %.6f s, want %.6f s", cc.k, want)
	}
	if math.Abs(want-4.2172) > 1e-3 {
		t.Fatalf("reference K moved: %.4f", want) // guards the test itself
	}
	// At the plateau (t = K) the cubic target is W_max again: after K
	// seconds the window must have grown back to ~W_max but not far
	// past it (concave approach, RFC 8312 §4.3).
	epoch := cc.epochStart
	cc.cwnd = 90 * cubicMSS // below the plateau, inside the concave region
	now := epoch + int64(cc.k*1e9)
	cc.OnAck(cubicMSS, now, 100e6)
	target := float64(cc.wMax + cubicC*math.Pow(cc.k+0.1-cc.k, 3)) // W_cubic(t+RTT) at t=K
	if got := float64(cc.cwnd) / cubicMSS; got > target+1 {
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
	cc := cubicInCA(10)
	cc.OnAck(cubicMSS, 1e9, rttNS) // open the epoch
	before := cc.cwnd
	cc.OnAck(cubicMSS, 2e9, rttNS) // t = 1 s into it, far below W_est
	if inc := cc.cwnd - before; inc != cubicMSS {
		t.Fatalf("friendly region: per-ACK increment %d, want one MSS", inc)
	}
	// Repeated ACKs converge on W_est and stop there.
	wantEst := 10*cubicBeta + cubicFriendlyGain*(1.0/0.1)
	for i := 0; i < 20; i++ {
		cc.OnAck(cubicMSS, 2e9, rttNS)
	}
	got := float64(cc.cwnd) / cubicMSS
	if got < wantEst-0.1 || got > wantEst+1 {
		t.Fatalf("friendly region: cwnd %.2f segs did not converge on W_est %.2f", got, wantEst)
	}

	// Large plateau: W_max = 1000. At t = 1 s, W_cubic ≈ 1000 -
	// 0.4·(K-1)³ ≈ 788 while W_est ≈ 705 — cubic region, so growth is
	// the bounded per-ACK climb toward the target, not a jump to W_est.
	cc = cubicInCA(1000)
	cc.OnAck(cubicMSS, 1e9, rttNS)
	before = cc.cwnd
	cc.OnAck(cubicMSS, 2e9, rttNS)
	inc := cc.cwnd - before
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
	cc := &cubicCC{}
	cc.OnInit(cubicMSS, false)
	cc.cwnd = 1000 * cubicMSS
	cc.OnEnterRecovery(0, true, 0)
	if cc.wMax != 1000 || cc.wLastMax != 1000 {
		t.Fatalf("first loss: wMax=%.0f wLastMax=%.0f, want 1000/1000", cc.wMax, cc.wLastMax)
	}
	if cc.ssthresh != int(1000*cubicMSS*cubicBeta) {
		t.Fatalf("ssthresh = %d, want 0.7 cwnd = %d", cc.ssthresh, int(1000*cubicMSS*cubicBeta))
	}
	// Second loss below the last plateau: fast convergence shrinks.
	cc.cwnd = 700 * cubicMSS
	cc.OnEnterRecovery(0, true, 1)
	wantWMax := 700 * (1 + cubicBeta) / 2
	if math.Abs(cc.wMax-wantWMax) > 1e-9 || cc.wLastMax != 700 {
		t.Fatalf("declining loss: wMax=%.2f wLastMax=%.0f, want %.2f/700", cc.wMax, cc.wLastMax, wantWMax)
	}
	// A loss at a window that grew past the plateau records it as-is.
	cc.cwnd = 900 * cubicMSS
	cc.OnEnterRecovery(0, true, 2)
	if cc.wMax != 900 || cc.wLastMax != 900 {
		t.Fatalf("grown loss: wMax=%.0f wLastMax=%.0f, want 900/900", cc.wMax, cc.wLastMax)
	}
}

// TestCubicRTOCollapse pins the timeout path: window to one MSS,
// ssthresh to β·cwnd, epoch reset so the next avoidance ACK restarts
// the clock.
func TestCubicRTOCollapse(t *testing.T) {
	cc := cubicInCA(100)
	cc.OnAck(cubicMSS, 1e9, 100e6) // open an epoch
	if cc.epochStart == 0 {
		t.Fatal("epoch never opened")
	}
	cc.cwnd = 80 * cubicMSS
	cc.OnRTO(0, 2e9)
	if cc.Cwnd() != cubicMSS {
		t.Fatalf("post-RTO cwnd = %d, want one MSS", cc.Cwnd())
	}
	if cc.ssthresh != int(80*cubicMSS*cubicBeta) {
		t.Fatalf("post-RTO ssthresh = %d, want %d", cc.ssthresh, int(80*cubicMSS*cubicBeta))
	}
	if cc.epochStart != 0 {
		t.Fatal("epoch not reset by the RTO")
	}
}

// TestCubicConvexStartWithoutLoss pins §4.8's no-loss case: when
// congestion avoidance begins by crossing ssthresh (no congestion
// event yet), the cubic origin is the current window with K = 0, so
// growth starts in the convex region immediately — a computed K would
// freeze the window for seconds below a plateau it already holds.
func TestCubicConvexStartWithoutLoss(t *testing.T) {
	cc := &cubicCC{}
	cc.OnInit(cubicMSS, false) // ssthresh 256 KiB, never any loss
	cc.cwnd = cc.ssthresh      // slow start just crossed into avoidance
	cc.OnAck(cubicMSS, 1e9, 100e6)
	if cc.k != 0 {
		t.Fatalf("no-loss epoch computed K = %.3f s, want 0", cc.k)
	}
	before := cc.cwnd
	cc.OnAck(cubicMSS, 2e9, 100e6) // one second into the epoch
	if cc.cwnd <= before {
		t.Fatalf("window frozen after a loss-free avoidance entry (cwnd %d)", cc.cwnd)
	}
}

// TestCongestionControllerRegistry pins name resolution: the empty
// string and "reno" select the extracted default, "cubic" selects RFC
// 8312, anything else is an error surfaced before a connection exists.
func TestCongestionControllerRegistry(t *testing.T) {
	s := &Stack{}
	for _, name := range []string{"", CCReno} {
		cc, err := s.newCongestionController(name)
		if err != nil || cc.Name() != CCReno {
			t.Fatalf("%q: got %v, %v", name, cc, err)
		}
	}
	cc, err := s.newCongestionController(CCCubic)
	if err != nil || cc.Name() != CCCubic {
		t.Fatalf("cubic: got %v, %v", cc, err)
	}
	if _, err := s.newCongestionController("vegas"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if ValidCongestion("vegas") || !ValidCongestion("") || !ValidCongestion(CCCubic) {
		t.Fatal("ValidCongestion disagrees with the registry")
	}
}

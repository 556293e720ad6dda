package fstack

import (
	"fmt"
	"math"
)

// The congestion-control seam. tcpconn.go used to smear cwnd/ssthresh
// arithmetic across every ACK- and loss-event site (init,
// fast-retransmit entry, NewReno inflation, partial-ACK deflation,
// full-ACK exit, slow start, AIMD, RTO collapse); adding a second
// algorithm meant touching all of them. Now the connection reports
// *events* and a CongestionController owns the window state: the conn
// keeps the transport mechanics (what is in flight, what was SACKed,
// when recovery starts and ends) and asks the controller how much the
// network can carry. State lives in the controller, not the conn, so
// an algorithm can keep whatever bookkeeping it needs (CUBIC's epoch
// clock and W_max history) without widening tcpConn.

// Registered congestion-control algorithm names, the values
// TCPTuning.Congestion accepts (net.inet.tcp.cc.algorithm analog).
const (
	// CCReno is the extracted default: RFC 5681 slow start + AIMD with
	// the RFC 6582 NewReno recovery adjustments. The empty string means
	// CCReno, which is what keeps the paper's scenarios byte-identical.
	CCReno = "reno"
	// CCCubic is RFC 8312 CUBIC: cubic window growth in time, a
	// TCP-friendly region, fast convergence, and a 0.7 multiplicative
	// decrease.
	CCCubic = "cubic"
)

// CongestionAlgos lists the registered algorithm names.
func CongestionAlgos() []string { return []string{CCReno, CCCubic} }

// ValidCongestion reports whether name selects a registered algorithm
// ("" selects the default).
func ValidCongestion(name string) bool {
	return name == "" || name == CCReno || name == CCCubic
}

// effectiveCC resolves a tuning name to the registered algorithm name
// it selects ("" means the default). The conn arena compares this
// against a pooled controller's Name() to decide reuse.
func effectiveCC(name string) string {
	if name == "" {
		return CCReno
	}
	return name
}

// CongestionController is the pluggable congestion-control interface.
// The connection drives it from its ACK/loss-event sites and reads
// back Cwnd (how many unacknowledged bytes may be outstanding). All
// byte quantities are bytes, all times stack-clock nanoseconds.
type CongestionController interface {
	// Name returns the registered algorithm name.
	Name() string
	// OnInit seeds the window state at connection creation. mss is the
	// segment payload size before option negotiation; unboundedSS
	// reports that slow start should probe past the unscaled 64 KiB
	// window regime (window scaling offered, RFC 5681 §3.1).
	OnInit(mss int, unboundedSS bool)
	// SetMSS updates the segment size after MSS option negotiation.
	SetMSS(mss int)
	// OnAck processes a cumulative ACK of dataAcked new bytes outside
	// recovery. now is the stack clock; srtt is the smoothed RTT (0
	// before the first sample).
	OnAck(dataAcked int, now, srtt int64)
	// OnDupAck processes a duplicate ACK during recovery without a SACK
	// scoreboard — the RFC 6582 window-inflation site. (With SACK the
	// pipe estimate replaces inflation and no event is reported.)
	OnDupAck()
	// OnEnterRecovery starts loss recovery off the third duplicate ACK.
	// pipe is the RFC 6675 in-network byte estimate at the loss event;
	// sackOK reports scoreboard-driven recovery (no inflation needed).
	OnEnterRecovery(pipe int, sackOK bool, now int64)
	// OnPartialAck processes a partial ACK during non-SACK recovery
	// (the RFC 6582 deflation site).
	OnPartialAck(dataAcked int)
	// OnExitRecovery processes the full ACK at or past the recovery
	// point.
	OnExitRecovery(now int64)
	// OnRTO processes a retransmission timeout. pipe is the RFC 6675
	// estimate at the timeout.
	OnRTO(pipe int, now int64)
	// Cwnd is the congestion window in bytes.
	Cwnd() int
}

// newCongestionController takes a fresh controller of the algorithm
// tuning selects from the stack's slab for it (slabTake).
func (s *Stack) newCongestionController(name string) (CongestionController, error) {
	switch name {
	case "", CCReno:
		return slabTake(&s.renoSlab), nil
	case CCCubic:
		return slabTake(&s.cubicSlab), nil
	default:
		return nil, fmt.Errorf("fstack: unknown congestion-control algorithm %q (have %v)",
			name, CongestionAlgos())
	}
}

// --- Reno / NewReno (the extracted paper-stack default) ---

// renoCC is the pre-seam congestion control moved verbatim: RFC 5681
// slow start and AIMD with the RFC 6582 NewReno recovery adjustments.
// Every constant and every formula is the one tcpconn.go used inline,
// so the Scenario 1-6 goldens and Table II pin this implementation
// byte-identical to the pre-refactor stack.
type renoCC struct {
	mss      int
	cwnd     int
	ssthresh int
}

func (r *renoCC) Name() string { return CCReno }

func (r *renoCC) OnInit(mss int, unboundedSS bool) {
	r.mss = mss
	r.cwnd = 10 * mss
	r.ssthresh = 256 * 1024
	if unboundedSS {
		// A scaled window is bounded by the receive buffer, so slow
		// start must be allowed to probe past the unscaled 64 KiB
		// regime; modern stacks start ssthresh effectively unbounded
		// (RFC 5681 §3.1).
		r.ssthresh = 1 << 30
	}
}

func (r *renoCC) SetMSS(mss int) { r.mss = mss }

func (r *renoCC) OnAck(dataAcked int, now, srtt int64) {
	if r.cwnd < r.ssthresh {
		r.cwnd += min(dataAcked, r.mss) // slow start
	} else {
		r.cwnd += max(1, r.mss*r.mss/r.cwnd) // AIMD
	}
}

func (r *renoCC) OnDupAck() { r.cwnd += r.mss } // NewReno window inflation

func (r *renoCC) OnEnterRecovery(pipe int, sackOK bool, now int64) {
	r.ssthresh = max(pipe/2, 2*r.mss)
	if sackOK {
		r.cwnd = r.ssthresh
	} else {
		r.cwnd = r.ssthresh + 3*r.mss
	}
}

func (r *renoCC) OnPartialAck(dataAcked int) {
	// Partial ACK (RFC 6582): deflate instead of grow.
	r.cwnd = max(r.cwnd-dataAcked+r.mss, 2*r.mss)
}

func (r *renoCC) OnExitRecovery(now int64) { r.cwnd = r.ssthresh }

func (r *renoCC) OnRTO(pipe int, now int64) {
	r.ssthresh = max(pipe/2, 2*r.mss)
	r.cwnd = r.mss
}

func (r *renoCC) Cwnd() int { return r.cwnd }

// --- CUBIC (RFC 8312) ---

// CUBIC constants (RFC 8312 §4.1, §4.5).
const (
	// cubicBeta is the multiplicative decrease factor: on a loss event
	// the window shrinks to 0.7·cwnd (vs Reno's 0.5).
	cubicBeta = 0.7
	// cubicC scales the cubic growth function (segments/second³).
	cubicC = 0.4
)

// cubicFriendlyGain is the per-RTT segment growth of the TCP-friendly
// estimate, 3·(1-β)/(1+β) (RFC 8312 §4.2) — the average AIMD rate of a
// Reno flow that backs off by β instead of ½.
var cubicFriendlyGain = 3 * (1 - cubicBeta) / (1 + cubicBeta)

// cubicCC implements RFC 8312. Window growth in congestion avoidance
// follows the cubic W(t) = C·(t-K)³ + W_max around the last loss
// event's window W_max, which makes the growth rate a function of
// *time since the loss* rather than of RTTs elapsed — the property
// that recovers the utilization Reno's one-MSS-per-RTT slope leaves on
// the table at 100 ms RTTs (Scenario 7). Window units inside are
// segments (as in the RFC); Cwnd converts to bytes.
type cubicCC struct {
	mss      int
	cwnd     int
	ssthresh int

	// wMax is the congestion window (segments) at the last loss event
	// — the plateau the cubic function saturates toward. wLastMax
	// remembers the previous plateau for fast convergence (§4.6).
	wMax     float64
	wLastMax float64
	// k is the period (seconds) the cubic function takes to grow back
	// to wMax: K = cbrt(wMax·(1-β)/C) (§4.1).
	k float64
	// epochStart is the stack-clock origin of the current congestion
	// avoidance epoch; 0 means the epoch starts at the next ACK.
	epochStart int64
}

func (c *cubicCC) Name() string { return CCCubic }

func (c *cubicCC) OnInit(mss int, unboundedSS bool) {
	// Full reset: OnInit is also the arena-reuse path, where the struct
	// carries a previous connection's epoch state.
	*c = cubicCC{mss: mss, cwnd: 10 * mss, ssthresh: 256 * 1024}
	if unboundedSS {
		c.ssthresh = 1 << 30
	}
}

func (c *cubicCC) SetMSS(mss int) { c.mss = mss }

func (c *cubicCC) OnAck(dataAcked int, now, srtt int64) {
	if c.cwnd < c.ssthresh {
		c.cwnd += min(dataAcked, c.mss) // standard slow start (§4.8)
		return
	}
	if dataAcked <= 0 {
		return
	}
	mss := float64(c.mss)
	cwndSeg := float64(c.cwnd) / mss
	if c.epochStart == 0 {
		c.epochStart = now
		if c.wMax < cwndSeg {
			// No loss yet (or the window already outgrew the old
			// plateau): the cubic origin is the current window, K = 0,
			// and growth starts in the convex region immediately
			// (§4.8) — a computed K here would freeze the window for
			// cbrt(wMax·0.3/C) seconds below a plateau it already
			// holds.
			c.wMax = cwndSeg
			c.k = 0
		} else {
			c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
		}
	}
	t := float64(now-c.epochStart) / 1e9
	rtt := float64(srtt) / 1e9
	if rtt > 0 {
		// TCP-friendly region (§4.2): where an AIMD flow with β=0.7
		// would already be larger, track it instead of the flat early
		// cubic plateau. Tracking is paced per ACK like the cubic
		// region below — W_est is a function of wall time, so after an
		// ACK-free interval (a zero-window stall, an app-limited lull)
		// assigning it directly would burst the whole accrued estimate
		// into the queue in one window.
		wEst := c.wMax*cubicBeta + cubicFriendlyGain*(t/rtt)
		wCubic := c.wMax + cubicC*math.Pow(t-c.k, 3)
		if wCubic < wEst {
			if wEst > cwndSeg {
				c.cwnd += int(math.Min((wEst-cwndSeg)*mss, mss))
			}
			return
		}
	}
	// Concave/convex region (§4.3, §4.4): grow toward the window the
	// cubic function predicts one RTT ahead, spreading the increase
	// over the ACKs of this window; each ACK adds at most one MSS so
	// the convex exploration cannot burst line-rate spikes.
	target := c.wMax + cubicC*math.Pow(t+rtt-c.k, 3)
	if target > cwndSeg {
		inc := (target - cwndSeg) / cwndSeg * mss
		c.cwnd += int(math.Min(inc, mss))
	}
}

func (c *cubicCC) OnDupAck() { c.cwnd += c.mss } // NewReno inflation, as in renoCC

// onLoss is the shared §4.5/§4.6 congestion-event bookkeeping: record
// the plateau (shrunk further when plateaus are declining — fast
// convergence), reset the epoch, and cut ssthresh to β·cwnd.
func (c *cubicCC) onLoss() {
	cwndSeg := float64(c.cwnd) / float64(c.mss)
	c.epochStart = 0
	if cwndSeg < c.wLastMax {
		c.wLastMax = cwndSeg
		c.wMax = cwndSeg * (1 + cubicBeta) / 2 // fast convergence (§4.6)
	} else {
		c.wLastMax = cwndSeg
		c.wMax = cwndSeg
	}
	c.ssthresh = max(int(math.Round(float64(c.cwnd)*cubicBeta)), 2*c.mss)
}

func (c *cubicCC) OnEnterRecovery(pipe int, sackOK bool, now int64) {
	c.onLoss()
	c.cwnd = c.ssthresh
	if !sackOK {
		c.cwnd += 3 * c.mss // the three dup-ACKed segments left the net
	}
}

func (c *cubicCC) OnPartialAck(dataAcked int) {
	c.cwnd = max(c.cwnd-dataAcked+c.mss, 2*c.mss)
}

func (c *cubicCC) OnExitRecovery(now int64) { c.cwnd = c.ssthresh }

func (c *cubicCC) OnRTO(pipe int, now int64) {
	c.onLoss()
	c.cwnd = c.mss // RFC 5681 restart; slow start climbs back to ssthresh
}

func (c *cubicCC) Cwnd() int { return c.cwnd }

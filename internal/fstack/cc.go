package fstack

import "math"

// Congestion control. The set of algorithms is closed (Reno and
// CUBIC), so a connection holds its window as two fields, cwnd and
// ssthresh, and a one-byte algorithm fixed when it is built. The
// connection's ACK- and loss-event sites call the methods below, which
// branch on the algorithm only where Reno and CUBIC differ: the
// congestion-avoidance ACK, the loss cut and the RTO. CUBIC's epoch
// lives in the cold record, which a CUBIC connection takes on its first
// avoidance ACK or its first loss; a Reno connection never carries it.

// Registered congestion-control algorithm names, the values
// TCPTuning.Congestion accepts (net.inet.tcp.cc.algorithm analog).
const (
	// CCReno is the paper stack's default: RFC 5681 slow start + AIMD
	// with the RFC 6582 NewReno recovery adjustments. The empty string
	// means CCReno, which is what keeps the paper's scenarios
	// byte-identical.
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

// ccAlgo is a connection's congestion-control algorithm.
type ccAlgo uint8

const (
	ccReno ccAlgo = iota
	ccCubic
)

// algo is the algorithm t.Congestion selects (Validate has refused
// any other name).
func (t TCPTuning) algo() ccAlgo {
	if t.Congestion == CCCubic {
		return ccCubic
	}
	return ccReno
}

// Initial window state (RFC 5681 §3.1). A scaled window is bounded by
// the receive buffer, so a connection offering window scaling starts
// ssthresh effectively unbounded, letting slow start probe past the
// unscaled 64 KiB regime.
const (
	initialCwnd       = 10 * MaxSegData
	initialSsthresh   = 256 * 1024
	unboundedSsthresh = 1 << 30
)

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

// cubicEpoch is CUBIC's state between loss events, in segments and
// seconds as in the RFC. Its zero value is a connection that has seen
// no loss and opened no epoch.
type cubicEpoch struct {
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

// ccAck processes a cumulative ACK of dataAcked new bytes outside
// recovery: slow start below ssthresh, congestion avoidance above it.
func (c *tcpConn) ccAck(dataAcked int) {
	mss := int(c.sndMSS)
	switch {
	case c.cwnd < c.ssthresh:
		c.cwnd += uint32(min(dataAcked, mss)) // slow start (RFC 8312 §4.8 too)
	case c.cc == ccCubic:
		c.cubicAvoid(dataAcked)
	default:
		c.cwnd += uint32(max(1, mss*mss/int(c.cwnd))) // AIMD
	}
}

// cubicAvoid is CUBIC's congestion-avoidance growth. The window follows
// W(t) = C·(t-K)³ + W_max around the last loss event's window W_max,
// which makes the growth rate a function of *time since the loss*
// rather than of RTTs elapsed — the property that recovers the
// utilization Reno's one-MSS-per-RTT slope leaves on the table at
// 100 ms RTTs (Scenario 7).
func (c *tcpConn) cubicAvoid(dataAcked int) {
	if dataAcked <= 0 {
		return
	}
	e := &c.takeCold().cubic
	now := c.stk.now()
	mss := float64(c.sndMSS)
	cwndSeg := float64(c.cwnd) / mss
	if e.epochStart == 0 {
		e.epochStart = now
		if e.wMax < cwndSeg {
			// No loss yet (or the window already outgrew the old
			// plateau): the cubic origin is the current window, K = 0,
			// and growth starts in the convex region immediately
			// (§4.8) — a computed K here would freeze the window for
			// cbrt(wMax·0.3/C) seconds below a plateau it already
			// holds.
			e.wMax = cwndSeg
			e.k = 0
		} else {
			e.k = math.Cbrt(e.wMax * (1 - cubicBeta) / cubicC)
		}
	}
	t := float64(now-e.epochStart) / 1e9
	rtt := float64(c.srtt) / 1e9
	if rtt > 0 {
		// TCP-friendly region (§4.2): where an AIMD flow with β=0.7
		// would already be larger, track it instead of the flat early
		// cubic plateau. Tracking is paced per ACK like the cubic
		// region below — W_est is a function of wall time, so after an
		// ACK-free interval (a zero-window stall, an app-limited lull)
		// assigning it directly would burst the whole accrued estimate
		// into the queue in one window.
		wEst := e.wMax*cubicBeta + cubicFriendlyGain*(t/rtt)
		wCubic := e.wMax + cubicC*math.Pow(t-e.k, 3)
		if wCubic < wEst {
			if wEst > cwndSeg {
				c.cwnd += uint32(math.Min((wEst-cwndSeg)*mss, mss))
			}
			return
		}
	}
	// Concave/convex region (§4.3, §4.4): grow toward the window the
	// cubic function predicts one RTT ahead, spreading the increase
	// over the ACKs of this window; each ACK adds at most one MSS so
	// the convex exploration cannot burst line-rate spikes.
	target := e.wMax + cubicC*math.Pow(t+rtt-e.k, 3)
	if target > cwndSeg {
		inc := (target - cwndSeg) / cwndSeg * mss
		c.cwnd += uint32(math.Min(inc, mss))
	}
}

// ccLossCut is a loss event's ssthresh cut, shared by recovery entry
// and the RTO. Reno halves the pipe, the RFC 6675 in-network estimate
// at the event. CUBIC records the plateau (shrunk further when plateaus
// are declining — fast convergence, §4.6), resets the epoch and cuts to
// β·cwnd (§4.5).
func (c *tcpConn) ccLossCut(pipe int) {
	mss := int(c.sndMSS)
	if c.cc == ccReno {
		c.ssthresh = uint32(max(pipe/2, 2*mss))
		return
	}
	e := &c.takeCold().cubic
	cwndSeg := float64(c.cwnd) / float64(mss)
	e.epochStart = 0
	if cwndSeg < e.wLastMax {
		e.wLastMax = cwndSeg
		e.wMax = cwndSeg * (1 + cubicBeta) / 2 // fast convergence (§4.6)
	} else {
		e.wLastMax = cwndSeg
		e.wMax = cwndSeg
	}
	c.ssthresh = uint32(max(int(math.Round(float64(c.cwnd)*cubicBeta)), 2*mss))
}

// ccEnterRecovery starts loss recovery off the third duplicate ACK.
// Without a SACK scoreboard the three dup-ACKed segments left the
// network, so the window is inflated by them (RFC 6582); with one the
// pipe estimate accounts for them.
func (c *tcpConn) ccEnterRecovery(pipe int) {
	c.ccLossCut(pipe)
	c.cwnd = c.ssthresh
	if !c.sackOK {
		c.cwnd += 3 * uint32(c.sndMSS)
	}
}

// ccDupAck is the RFC 6582 window inflation of a duplicate ACK during
// non-SACK recovery.
func (c *tcpConn) ccDupAck() { c.cwnd += uint32(c.sndMSS) }

// ccPartialAck deflates the window by a partial ACK's dataAcked bytes
// during non-SACK recovery (RFC 6582) instead of growing it.
func (c *tcpConn) ccPartialAck(dataAcked int) {
	mss := int(c.sndMSS)
	c.cwnd = uint32(max(int(c.cwnd)-dataAcked+mss, 2*mss))
}

// ccExitRecovery is the full ACK at or past the recovery point.
func (c *tcpConn) ccExitRecovery() { c.cwnd = c.ssthresh }

// ccRTO processes a retransmission timeout: the loss cut, then the
// RFC 5681 restart at one segment, from which slow start climbs back to
// ssthresh.
func (c *tcpConn) ccRTO(pipe int) {
	c.ccLossCut(pipe)
	c.cwnd = uint32(c.sndMSS)
}

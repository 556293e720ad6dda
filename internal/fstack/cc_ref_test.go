package fstack

import (
	"math"
	"math/rand"
	"testing"
)

// The congestion controllers as they were while congestion control was
// an interface with one implementation per algorithm, kept verbatim as
// the reference TestControllerMatchesReference drives side by side with
// a connection's cwnd/ssthresh fields and cc.go's event methods. The
// constants (cubicBeta, cubicC, cubicFriendlyGain) are cc.go's.

// refCC is the event interface both references implement.
type refCC interface {
	Name() string
	OnInit(mss int, unboundedSS bool)
	SetMSS(mss int)
	OnAck(dataAcked int, now, srtt int64)
	OnDupAck()
	OnEnterRecovery(pipe int, sackOK bool, now int64)
	OnPartialAck(dataAcked int)
	OnExitRecovery(now int64)
	OnRTO(pipe int, now int64)
	Cwnd() int
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

// TestControllerMatchesReference drives a connection's cwnd/ssthresh
// fields through cc.go's event methods and the reference controller
// through the same seeded event sequences, for both algorithms with
// window scaling off and on, and compares cwnd, ssthresh and CUBIC's
// epoch after every event. A sequence mixes slow-start and avoidance
// ACKs on a moving clock and smoothed RTT, MSS renegotiation, SACK and
// NewReno recovery with dup-ACK inflation and partial ACKs, recovery
// exits and RTOs.
func TestControllerMatchesReference(t *testing.T) {
	const seeds, events = 100, 600
	for _, algo := range []string{CCReno, CCCubic} {
		for _, ws := range []uint8{0, 7} {
			seen := map[string]int{}
			for seed := int64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c, clk := ccConn(t, algo, ws)
				var ref refCC = &renoCC{}
				if algo == CCCubic {
					ref = &cubicCC{}
				}
				ref.OnInit(MaxSegData, ws > 0)
				inRecovery := false
				for i := 0; i <= events; i++ {
					what := "init"
					if i > 0 {
						clk.Advance(rng.Int63n(20e6))
						if rng.Intn(8) == 0 {
							c.srtt = uint32(rng.Int63n(200e6))
						}
						what = refEvent(rng, c, ref, &inRecovery, clk.Now())
					}
					seen[what]++
					got, want := refState(c), refStateOf(ref)
					if got != want {
						t.Fatalf("%s ws=%d seed %d event %d (%s): cwnd/ssthresh/epoch %+v, reference %+v",
							algo, ws, seed, i, what, got, want)
					}
					if algo == CCReno && c.cold != nil {
						t.Fatalf("%s seed %d event %d (%s): a Reno connection took a cold record", algo, seed, i, what)
					}
				}
			}
			for _, what := range []string{"ack", "mss", "recovery", "dup-ack", "partial-ack", "sack-ack", "exit", "rto"} {
				if seen[what] == 0 {
					t.Errorf("%s ws=%d: no %s event drawn", algo, ws, what)
				}
			}
		}
	}
}

// ccState is what TestControllerMatchesReference compares.
type ccState struct {
	cwnd, ssthresh int
	cubic          cubicEpoch
}

// refState reads a connection's window and CUBIC epoch (zero without a
// cold record).
func refState(c *tcpConn) ccState {
	st := ccState{cwnd: int(c.cwnd), ssthresh: int(c.ssthresh)}
	if c.cold != nil {
		st.cubic = c.cold.cubic
	}
	return st
}

// refStateOf reads a reference controller's window and epoch.
func refStateOf(ref refCC) ccState {
	switch r := ref.(type) {
	case *renoCC:
		return ccState{cwnd: r.cwnd, ssthresh: r.ssthresh}
	case *cubicCC:
		return ccState{cwnd: r.cwnd, ssthresh: r.ssthresh,
			cubic: cubicEpoch{wMax: r.wMax, wLastMax: r.wLastMax, k: r.k, epochStart: r.epochStart}}
	}
	panic("unknown reference controller")
}

// refEvent draws one event the connection's sites could report in its
// recovery state, applies it to both sides and names it.
func refEvent(rng *rand.Rand, c *tcpConn, ref refCC, inRecovery *bool, now int64) string {
	mss := int(c.sndMSS)
	r := rng.Intn(100)
	switch {
	case r < 2:
		m := 536 + rng.Intn(MaxSegData-536+1) // MSS option renegotiation
		c.sndMSS = int32(m)
		ref.SetMSS(m)
		return "mss"
	case !*inRecovery && r < 85:
		n := rng.Intn(3*mss + 1)
		c.ccAck(n)
		ref.OnAck(n, now, int64(c.srtt))
		return "ack"
	case !*inRecovery && r < 95:
		pipe := rng.Intn(2*int(c.cwnd) + 1)
		c.sackOK = rng.Intn(2) == 0
		c.ccEnterRecovery(pipe)
		ref.OnEnterRecovery(pipe, c.sackOK, now)
		*inRecovery = true
		return "recovery"
	case *inRecovery && r < 75 && c.sackOK:
		return "sack-ack" // the pipe governs SACK recovery: no window event
	case *inRecovery && r < 45:
		c.ccDupAck()
		ref.OnDupAck()
		return "dup-ack"
	case *inRecovery && r < 75:
		n := rng.Intn(3*mss + 1)
		c.ccPartialAck(n)
		ref.OnPartialAck(n)
		return "partial-ack"
	case *inRecovery && r < 95:
		c.ccExitRecovery()
		ref.OnExitRecovery(now)
		*inRecovery = false
		return "exit"
	}
	pipe := rng.Intn(2*int(c.cwnd) + 1)
	c.ccRTO(pipe)
	ref.OnRTO(pipe, now)
	*inRecovery = false
	return "rto"
}

package fstack

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hostos"
)

// refTimer is the retransmission timer as each of its users wrote it
// before rexmt: int64 ns fields, the estimate updated by the connection's
// rttSample, every backoff a min(rto*2, rtoMax) at its call site and the
// count a plain counter.
type refTimer struct {
	srtt, rttvar, rto int64
	n                 int
}

// rttSample is the connection's estimator as it was, its floor (the
// stack's tuning) passed in.
func (c *refTimer) rttSample(sample, floor int64) {
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < floor {
		c.rto = floor
	}
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
}

// backoff is what onRTO's two branches and synRetransmit each did.
func (c *refTimer) backoff() {
	c.rto = min(c.rto*2, int64(rtoMax))
	c.n++
}

// TestRexmtMatchesRFC6298 drives rexmt and the reference side by side
// through seeded walks of samples, backoffs, count resets and fresh
// timers: srtt, rttvar, rto and the backoff count agree at every step.
// A sample past 2³²−1 ns is fed to the reference saturated, which is
// rexmt's stated rule; the count saturates at maxShift.
func TestRexmtMatchesRFC6298(t *testing.T) {
	floors := []int64{rtoMin, 20e6, 3 * rtoMax}
	var seen struct{ nonPositive, saturated, floored, capped, countCapped int }
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got rexmt
		var want refTimer
		fresh := func() {
			got = rexmt{rto: rtoInitial}
			want = refTimer{rto: rtoInitial}
		}
		fresh()
		floor := floors[rng.Intn(len(floors))]
		for step := 0; step < 2000; step++ {
			what := ""
			switch r := rng.Intn(100); {
			case r < 55:
				var ns int64
				switch k := rng.Intn(10); {
				case k == 0:
					ns = -rng.Int63n(1e9) // a TSEcr from the future
					seen.nonPositive++
				case k < 8:
					ns = int64(math.Exp2(10 + rng.Float64()*22)) // 1 µs .. 2³² ns
				default:
					ns = math.MaxUint32 + rng.Int63n(1<<40)
					seen.saturated++
				}
				got.sample(ns, floor)
				want.rttSample(min(ns, math.MaxUint32), floor)
				if ns > 0 && want.rto == floor && floor < rtoMax {
					seen.floored++
				}
				if want.rto == rtoMax {
					seen.capped++
				}
				what = "sample"
			case r < 85:
				for range 1 + rng.Intn(12) {
					n := got.backoff()
					want.backoff()
					if n != got.shift {
						t.Fatalf("seed %d step %d: backoff returned %d, count %d", seed, step, n, got.shift)
					}
					if want.n >= maxShift {
						seen.countCapped++
					}
				}
				what = "backoffs"
			case r < 93:
				got.shift, want.n = 0, 0 // forward progress
				what = "reset"
			case r < 97:
				floor = floors[rng.Intn(len(floors))]
				what = "floor"
			default:
				fresh()
				what = "fresh"
			}
			if g, w := [3]int64{int64(got.srtt), int64(got.rttvar), int64(got.rto)}, [3]int64{want.srtt, want.rttvar, want.rto}; g != w ||
				int(got.shift) != min(want.n, maxShift) {
				t.Fatalf("seed %d step %d (%s, floor %d): srtt/rttvar/rto %v count %d, reference %v count %d",
					seed, step, what, floor, g, got.shift, w, want.n)
			}
		}
	}
	if seen.nonPositive == 0 || seen.saturated == 0 || seen.floored == 0 || seen.capped == 0 || seen.countCapped == 0 {
		t.Fatalf("walk missed an edge: %+v", seen)
	}
}

// leapUntil steps both stacks from deadline to deadline (at least 5 µs
// apart) until cond, read after each poll, holds; it fails past limit ns
// of virtual time, or once neither stack has a deadline left.
func (e *testEnv) leapUntil(limit int64, what string, cond func() bool) {
	e.t.Helper()
	for {
		e.stkA.PollOnce()
		e.stkB.PollOnce()
		if cond() {
			return
		}
		now := e.clk.Now()
		if now > limit {
			e.t.Fatalf("condition %q not reached by %.1f ms virtual", what, float64(now)/1e6)
		}
		next := min(e.stkA.NextDeadline(now), e.stkB.NextDeadline(now))
		if next == math.MaxInt64 {
			e.t.Fatalf("condition %q not reached: both stacks went quiet at %.1f ms virtual", what, float64(now)/1e6)
		}
		e.clk.Set(max(next, now+5000))
	}
}

// TestSynSentGivesUpAfterSynRetries: toward a silent peer an active open
// resends its SYN at 100, 300, 700, 1500 and 2500 ms, the timeout
// doubling from rtoInitial to rtoMax, and gives up with ETIMEDOUT on the
// next timeout, at 3.5 s.
func TestSynSentGivesUpAfterSynRetries(t *testing.T) {
	// ARP passes: the peer is silent, not absent.
	w := &scriptWire{rules: []*wireRule{{from: fromA, kind: tcpSeg, drop: true}}, record: true}
	e := newRig(t, false, w.attach)
	fd := dial(t, e.stkA, IPv4Addr{}, IP4(10, 0, 0, 2), 5001)
	var gaveUp int64
	e.leapUntil(10e9, "ETIMEDOUT", func() bool {
		_, errno := e.stkA.Read(fd, make([]byte, 1))
		gaveUp = e.clk.Now()
		return errno == hostos.ETIMEDOUT
	})
	var syns []int64
	for _, f := range w.segs(0) {
		if f.h.Flags&TCPSyn != 0 {
			syns = append(syns, f.at)
		}
	}
	// The first SYN waits out the peer's ARP reply; the timer runs from
	// Connect.
	if want := []int64{100e6, 300e6, 700e6, 1500e6, 2500e6}; len(syns) == 0 || syns[0] >= 1e6 || !slices.Equal(syns[1:], want) {
		t.Fatalf("SYNs at %v ns; want the first within 1 ms and then %v", syns, want)
	}
	if gaveUp != 3500e6 {
		t.Fatalf("ETIMEDOUT at %d ns, want 3.5 s", gaveUp)
	}
	if st := e.stkA.ConnState(fd); st != "CLOSED" {
		t.Fatalf("state %s after giving up, want CLOSED", st)
	}
}

// TestDataRetransmissionGivesUp: toward a peer that goes silent
// mid-transfer, each timeout resends the unacked segment and doubles the
// wait from rto up to rtoMax; the maxShift-th timeout in a row gives up
// (FreeBSD's TCP_MAXRXTSHIFT): the application reads ETIMEDOUT, the
// connection is gone, and TimeoutDrops counts it.
func TestDataRetransmissionGivesUp(t *testing.T) {
	s := newScript(t)
	fd := -1
	s.run(s.opened(&fd, 0)...)
	s.run(
		line{at: 2e6, call: func() {
			if n, errno := s.stk.Write(fd, make([]byte, 2*MaxSegData)); n != 2*MaxSegData || errno != hostos.OK {
				t.Fatal(n, errno)
			}
		}},
		line{at: 3e6, out: &pkt{flags: TCPAck, seq: 1, ack: 1, n: MaxSegData, win: maxRcvWnd}},
		line{at: 3e6, out: &pkt{flags: TCPPsh | TCPAck, seq: 1 + MaxSegData, ack: 1, n: MaxSegData, win: maxRcvWnd}},
		line{at: 3e6, in: &pkt{flags: TCPAck, seq: 1, ack: 1 + MaxSegData, win: 65535}}, // then silence
	)
	s.until(3e6)
	rto := int64(s.stk.sockOf(fd).conn.rto)
	want := []int64{3e6 + rto} // eleven resends; the twelfth timeout gives up
	for k := 1; k < 11; k++ {
		want = append(want, want[k-1]+min(rto<<k, rtoMax))
	}
	gaveUp := want[len(want)-1] + rtoMax
	s.until(gaveUp - 1)
	if _, errno := s.stk.Read(fd, make([]byte, 1)); errno != hostos.EAGAIN {
		t.Fatalf("read %v at %d ns, before the last timeout; want EAGAIN", errno, s.clk.Now())
	}
	s.until(gaveUp)
	if _, errno := s.stk.Read(fd, make([]byte, 1)); errno != hostos.ETIMEDOUT || s.stk.conns.n != 0 || s.stk.Stats().TimeoutDrops != 1 {
		t.Fatalf("read %v, %d conns, %d timeout drops at %d ns; want ETIMEDOUT, 0, 1", errno, s.stk.conns.n, s.stk.Stats().TimeoutDrops, gaveUp)
	}
	s.until(gaveUp + 10e9)
	var resent []int64
	for _, f := range s.w.segs(0) {
		if f.at > 3e6 {
			if p := s.w.pkt(f); p.n != MaxSegData || p.seq != 1+MaxSegData {
				t.Fatalf("at %d ns the stack sent %v; want only resends of the unacked segment", f.at, p)
			}
			resent = append(resent, f.at)
		}
	}
	if !slices.Equal(resent, want) {
		t.Fatalf("resends at %v ns, want %v", resent, want)
	}
}

// TestPersistProbesBackOff: toward a receiver that reads nothing, each
// zero-window probe interval doubles from the connection's rto and
// holds at rtoMax. The backoff count is the retransmission timer's, and
// an episode ends either way: on a window update (the first episode's
// end), or on forward progress (the second's, whose window update is
// lost, so the receiver's ACK of a probe byte ends it). A window update
// clears the count, as does each episode's arming, so a timeout after
// the episode does not start near the give-up and each new episode's
// intervals start again at rto.
func TestPersistProbesBackOff(t *testing.T) {
	probe := &wireRule{from: fromA, kind: dataSeg, when: func(f *wireFrame) bool { return f.n == 1 }} // counts, no action
	w := &scriptWire{rules: []*wireRule{probe}}
	e := newRig(t, false, w.attach)
	if err := e.stkB.SetTCPTuning(TCPTuning{RcvBufBytes: 8192}); err != nil {
		t.Fatal(err)
	}
	cfd, afd := e.connectPair(5001)
	c := e.stkA.sockOf(cfd).conn
	if _, errno := e.stkA.Write(cfd, bytes.Repeat([]byte{0x5A}, 32<<10)); errno != hostos.OK {
		t.Fatal(errno)
	}
	// episode records each interval the persisting connection's deadline
	// is armed for, until it has seen n, and checks them against rto
	// doubled per probe.
	episode := func(name string, n int) []int64 {
		t.Helper()
		var got []int64
		var last int64
		e.leapUntil(e.clk.Now()+20e9, name, func() bool {
			if at := c.rtxAt; c.persisting() && at != 0 && at != last {
				got = append(got, at-e.clk.Now())
				last = at
			}
			return len(got) == n
		})
		for i, iv := range got {
			if want := min(int64(c.rto)<<i, rtoMax); iv != want {
				t.Fatalf("%s: probe intervals %v ns; interval %d is %d, want rto %d << %d capped at %d",
					name, got, i, iv, c.rto, i, int64(rtoMax))
			}
		}
		return got
	}
	// drain reads one receive buffer and steps until the episode ends.
	drain := func(how string) {
		t.Helper()
		if n, errno := e.stkB.Read(afd, make([]byte, 8192)); errno != hostos.OK || n != 8192 {
			t.Fatalf("read %d: %v", n, errno)
		}
		e.leapUntil(e.clk.Now()+5e9, how, func() bool { return !c.persisting() })
	}
	const n = 12 // 2 ms doubles past rtoMax by the tenth
	first := episode("first episode", n)
	if first[n-1] != rtoMax || probe.seen < n-1 {
		t.Fatalf("first episode: intervals %v, %d probes on the wire; want the cap reached and a probe per interval", first, probe.seen)
	}
	drain("a window update")
	if c.shift != 0 {
		t.Fatalf("backoff count %d after the window update ended the episode, want 0", c.shift)
	}
	second := episode("second episode", 5)
	una := c.sndUna
	lost := w.once(wireRule{from: fromB, kind: bareSeg, when: func(f *wireFrame) bool { return f.h.Window > 0 }, drop: true})
	drain("forward progress")
	if lost.seen == 0 || c.sndUna == una {
		t.Fatalf("the window update was not lost (%v) or no probe byte was taken (sndUna %d)", lost.seen == 0, c.sndUna)
	}
	third := episode("third episode", 3)
	t.Logf("rto %d ns; intervals %v, %v, %v; %d probes", c.rto, first, second, third, probe.seen)
}

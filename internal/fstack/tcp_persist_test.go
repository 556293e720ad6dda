package fstack

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hostos"
	"repro/internal/netem"
)

// TestPersistTimerRecoversLostWindowUpdate is the deterministic
// zero-window deadlock regression: the receiver advertises a zero
// window, reopens it, and a wire rule destroys exactly that one window
// update. Before the persist timer this stalled the connection
// forever — the receiver's update logic fires once (it tracks the
// advertised window it already sent), and the sender had no timer
// running because nothing was in flight. The sender's zero-window
// probe must force a byte through and elicit a fresh ACK carrying the
// open window.
func TestPersistTimerRecoversLostWindowUpdate(t *testing.T) {
	sawZero := false
	// Watch the receiver's pure ACKs: lose the first window update after a
	// zero window.
	update := &wireRule{from: fromB, kind: bareSeg, nth: 1, drop: true, when: func(f *wireFrame) bool {
		sawZero = sawZero || f.h.Window == 0
		return sawZero && f.h.Window > 0
	}}
	e := newRig(t, false, (&scriptWire{rules: []*wireRule{update}}).attach)
	// An 8 KiB receive buffer makes the window trivial to slam shut.
	e.stkB.SetTCPTuning(TCPTuning{RcvBufBytes: 8192})
	cfd, afd := e.connectPair(5001)

	st := &stream{from: e.stkA, to: e.stkB, wfd: cfd, rfd: afd, payload: bytes.Repeat([]byte{0x5A}, 24*1024), chunk: 24 * 1024}
	st.sent, _ = e.stkA.Write(cfd, st.payload)
	// Let the transfer fill the receiver's buffer and stall: the
	// receiver application reads nothing.
	e.pumpUntil(20000, "zero window advertised", func() bool { return sawZero })

	// Drain the receiver; its single window update is destroyed by the
	// rule, so only the persist probe can restart the sender.
	e.pumpUntil(400000, "transfer completes past the lost update", st.pump)
	if !bytes.Equal(st.got, st.payload) {
		t.Fatal("stream corrupted across the zero-window stall")
	}
	if update.seen == 0 {
		t.Fatal("the window update was never dropped — test is vacuous")
	}
	if probes := e.stkA.Stats().PersistProbes; probes == 0 {
		t.Fatalf("no zero-window probes sent: %+v", e.stkA.Stats())
	} else {
		t.Logf("recovered via %d persist probe(s)", probes)
	}
}

// TestPersistSurvivesSqueezedAckChannel is the ConnectAsym version of
// the deadlock: the reverse (ACK) channel is squeezed to a few hundred
// bytes of queue at modem rates, so window updates race the backlog of
// ordinary ACKs and some are tail-dropped. A slow reader then opens
// and closes the window repeatedly; every lost update is a would-be
// deadlock that only the persist timer clears. The forward direction
// is clean, so any stall is the reverse path's doing.
func TestPersistSurvivesSqueezedAckChannel(t *testing.T) {
	e := newRig(t, false, netemLink(
		netem.Config{}, // clean data direction
		netem.Config{RateBps: 100e3, QueueBytes: 150, Seed: 7}))
	// Slow-ACK serialization means ms-scale ACK delays; keep the RTO
	// off the sender's back so the reverse path is the only villain.
	e.stkA.SetTCPTuning(TCPTuning{RTOMinNS: 100e6})
	e.stkB.SetTCPTuning(TCPTuning{RcvBufBytes: 8192, RTOMinNS: 100e6})
	cfd, afd := e.connectPair(5001)

	payload := bytes.Repeat([]byte{0xC3}, 64*1024)
	sent := 0
	var got []byte
	buf := make([]byte, 65536)
	probesSeen := uint64(0)
	probes := func() uint64 {
		return e.stkA.Stats().PersistProbes
	}
	e.pumpUntil(3_000_000, "transfer completes over the squeezed ACK channel", func() bool {
		for sent < len(payload) {
			n, errno := e.stkA.Write(cfd, payload[sent:])
			if errno != hostos.OK || n == 0 {
				break
			}
			sent += n
		}
		// The receiver reads only once the sender has been driven to a
		// zero-window probe: at that instant the probe's rejection ACK
		// is still serializing through the squeezed channel, so the
		// window update the read triggers meets a full queue and is
		// tail-dropped — the deadlock the next probe must clear. The
		// last buffer-full of the stream drains freely: the sender is
		// out of data there, so no probe can announce it.
		p := probes()
		if p > probesSeen || len(payload)-len(got) <= 8192 {
			probesSeen = p
			for {
				n, errno := e.stkB.Read(afd, buf)
				if errno != hostos.OK || n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
		}
		return len(got) == len(payload)
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("stream corrupted over the squeezed ACK channel")
	}
	st := e.stkA.Stats()
	t.Logf("sender: %s, %d persist probes", st.RecoverySummary(), st.PersistProbes)
	if st.PersistProbes == 0 {
		t.Fatalf("squeezed ACK channel never exercised the persist timer: %+v", st)
	}
}

// refPersist is the zero-window probe as its own timer decided it before
// it rode the connection's one deadline: armed when nothing is in
// flight, the peer's window is zero and bytes are queued; fired every
// min(rto<<k, rtoMax) after the k-th probe, measured from the poll that
// sent it; ended by a window update or by forward progress.
type refPersist struct {
	armed bool
	una   uint32 // sndUna at arming: forward progress moves it
	k     int    // probes sent this episode
	next  int64  // the next probe's deadline
}

// interval is the wait before the episode's next probe.
func (r *refPersist) interval(rto uint32) int64 {
	if r.k >= 30 {
		return rtoMax
	}
	return min(int64(rto)<<r.k, rtoMax)
}

// step applies the rules to the sender as one poll at now left it. It
// reports whether the episode ended, and whether a probe was due.
func (r *refPersist) step(c *tcpConn, now int64) (ended, probe bool) {
	if r.armed && (c.sndUna != r.una || c.sndWnd > 0) {
		r.armed, ended = false, true
	}
	if r.armed && now >= r.next {
		r.k++
		r.next = now + r.interval(c.rto)
		probe = true
	}
	if !r.armed && c.is(sends) && c.inflight() == 0 && c.sndWnd == 0 && c.sndBuf.Len() > 0 {
		*r = refPersist{armed: true, una: c.sndUna}
		r.next = now + r.interval(c.rto)
	}
	return ended, probe
}

// TestPersistMatchesParentRules walks zero-window episodes on 24 seeds
// and holds every probe to refPersist. The receiver has an 8 KiB ring and
// reads random amounts at random instants; the wire drops random pure
// ACKs from receiver to sender (window updates and probe answers among
// them) and rewrites none. After each sender poll the reference must
// agree on whether a probe left, and the seeds together must end
// episodes both ways and reach rtoMax.
func TestPersistMatchesParentRules(t *testing.T) {
	var seen struct{ probes, byUpdate, byProgress, capped int }
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wire := rand.New(rand.NewSource(^seed))
		e := newRig(t, false, (&scriptWire{rules: []*wireRule{{from: fromB, kind: bareSeg, drop: true, when: func(f *wireFrame) bool {
			return f.h.Flags&(TCPSyn|TCPFin) == 0 && wire.Float64() < 0.3
		}}}}).attach)
		if err := e.stkB.SetTCPTuning(TCPTuning{RcvBufBytes: 8192}); err != nil {
			t.Fatal(err)
		}
		cfd, afd := e.connectPair(5001)
		c := e.stkA.sockOf(cfd).conn
		payload := make([]byte, 96<<10)
		rng.Read(payload)
		if n, errno := e.stkA.Write(cfd, payload); errno != hostos.OK || n != len(payload) {
			t.Fatalf("seed %d: wrote %d: %v", seed, n, errno)
		}
		var ref refPersist
		var got []byte
		buf := make([]byte, 8192)
		nextRead := e.clk.Now()
		for len(got) < len(payload) {
			now := e.clk.Now()
			if now > 600e9 {
				t.Fatalf("seed %d: %d of %d bytes by %.1f s virtual", seed, len(got), len(payload), float64(now)/1e9)
			}
			probes := e.stkA.Stats().PersistProbes
			e.stkA.PollOnce()
			ended, probe := ref.step(c, now)
			if sent := e.stkA.Stats().PersistProbes - probes; sent > 1 || (sent == 1) != probe {
				t.Fatalf("seed %d at %d ns: %d probes sent, the reference expected %v (episode armed %v, probe %d, next %d, rto %d)",
					seed, now, sent, probe, ref.armed, ref.k, ref.next, c.rto)
			}
			if ended {
				if c.sndUna != ref.una {
					seen.byProgress++
				} else {
					seen.byUpdate++
				}
			}
			if probe {
				seen.probes++
				if ref.interval(c.rto) == rtoMax {
					seen.capped++
				}
			}
			e.stkB.PollOnce()
			if now >= nextRead {
				if n, _ := e.stkB.Read(afd, buf[:1+rng.Intn(len(buf))]); n > 0 {
					got = append(got, buf[:n]...)
				}
				// 20 µs to 2 s, log-uniform.
				nextRead = now + int64(math.Exp(math.Log(20e3)+rng.Float64()*math.Log(2e9/20e3)))
			}
			next := min(e.stkA.NextDeadline(now), e.stkB.NextDeadline(now), nextRead)
			e.clk.Set(max(next, now+5000))
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("seed %d: stream corrupted", seed)
		}
	}
	t.Logf("%+v", seen)
	if seen.probes == 0 || seen.byUpdate == 0 || seen.byProgress == 0 || seen.capped == 0 {
		t.Fatalf("the walk missed a case: %+v", seen)
	}
}

// TestRetractedWindowIsProbed: a receiver's pure ACK, rewritten on the
// wire to window 0 while about 20 KB is in flight, retracts the window
// (RFC 1122 §4.2.2.16), and the receiver is then silent for 3 s. The
// sender's first timeout after it is a 1-byte probe at sndUna, one rto
// after the ACK, with cwnd and rto untouched: a zero window is probed,
// not taken for loss (FreeBSD's tcp_output stops its retransmission
// timer and persists on sendwin == 0). Past the silence the 512 KiB
// transfer completes intact.
func TestRetractedWindowIsProbed(t *testing.T) {
	var c *tcpConn
	var silentUntil int64
	w := &scriptWire{record: true, rules: []*wireRule{
		{from: fromB, kind: tcpSeg, drop: true, when: func(f *wireFrame) bool { return c != nil && f.at < silentUntil }},
		{from: fromB, kind: bareSeg, nth: 1, when: func(f *wireFrame) bool {
			return c != nil && f.h.Flags == TCPAck && c.sndMax-f.h.Ack >= 20<<10
		}, edit: func(f *wireFrame) {
			binary.BigEndian.PutUint16(f.data[EthHeaderLen+IPv4HeaderLen+14:], 0)
			silentUntil = f.at + 3e9
		}},
	}}
	e := newRig(t, false, w.attach)
	cfd, afd := e.connectPair(5001)
	c = e.stkA.sockOf(cfd).conn
	st := &stream{from: e.stkA, to: e.stkB, wfd: cfd, rfd: afd, payload: make([]byte, 512<<10), chunk: 512 << 10}
	rand.New(rand.NewSource(1)).Read(st.payload)
	e.leapUntil(1e9, "the retracted window reaches the sender", func() bool {
		st.pump()
		return silentUntil != 0 && c.sndWnd == 0
	})
	armed, cwnd, rto, retx, tx := c.rtxAt, c.cwnd, c.rto, e.stkA.Stats().Retransmit, e.stkA.Stats().TxFrames
	if c.inflight() < 20<<10 || armed != e.clk.Now()+int64(rto) {
		t.Fatalf("%d bytes in flight, deadline %d ns away; want ≥ 20 KiB and one rto (%d)", c.inflight(), armed-e.clk.Now(), rto)
	}
	una := c.sndUna
	e.leapUntil(armed+1, "the first timeout", func() bool { return e.clk.Now() >= armed })
	// Segments the stack queued before the ACK arrived may still reach
	// the wire after it: the stack sends one frame, the probe, last.
	stats, segs := e.stkA.Stats(), w.segs(0)
	if last := segs[len(segs)-1]; stats.TxFrames-tx != 1 || last.at != armed || last.h.Seq != una || last.n != 1 ||
		c.cwnd != cwnd || c.rto != rto || stats.Retransmit != retx {
		t.Fatalf("first timeout at %d ns: %d frames sent, the wire's last seq %d (%d bytes) at %d ns; cwnd %d → %d, rto %d → %d, %d retransmits; want one 1-byte probe at sndUna %d and nothing else moved",
			armed, stats.TxFrames-tx, last.h.Seq, last.n, last.at, cwnd, c.cwnd, rto, c.rto, stats.Retransmit-retx, una)
	}
	e.leapUntil(silentUntil+10e9, "the transfer completes past the silence", st.pump)
	if !bytes.Equal(st.got, st.payload) || e.stkA.Stats().RxDropped != 0 {
		t.Fatalf("stream intact %v, %d frames dropped by the sender", bytes.Equal(st.got, st.payload), e.stkA.Stats().RxDropped)
	}
	t.Logf("cwnd %d, rto %d ns; %d probes", cwnd, rto, e.stkA.Stats().PersistProbes)
}

package fstack

import (
	"bytes"
	"testing"
)

// TestColdRecordTakenOnFirstNeed pins when a connection holds its cold
// record: not while it is idle or moves data on a clean wire, from its
// first out-of-order segment (the receiver), its first SACK loss episode
// (the sender), its first zero window (a sender with data and no room)
// or, running CUBIC, its first congestion-avoidance ACK (not in slow
// start; kept through a loss episode), and no longer once it enters
// TIME_WAIT or the arena takes it. Every record a stack issued is then
// back on its pool.
func TestColdRecordTakenOnFirstNeed(t *testing.T) {
	dropNext := false
	e := newHookedEnv(t, func(from int, data []byte, _ int64) (int64, bool) {
		if from == 0 && dropNext && isDataFrame(data) {
			dropNext = false
			return 0, true
		}
		return 0, false
	})
	tune := TCPTuning{SACK: true, SndBufBytes: 64 << 10, RcvBufBytes: 64 << 10}
	e.stkA.SetTCPTuning(tune)
	e.stkB.SetTCPTuning(tune)
	cfd, afd := e.connectPair(7005)
	client, server := e.stkA.sockOf(cfd).conn, e.stkB.sockOf(afd).conn
	held := func(when string) {
		t.Helper()
		if client.cold != nil || server.cold != nil {
			t.Fatalf("%s: client holds a cold record %v, server %v; want neither", when, client.cold != nil, server.cold != nil)
		}
	}
	held("after the handshake")
	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if got := sendAll(e, cfd, afd, payload, 40000); !bytes.Equal(got, payload) {
		t.Fatal("stream corrupted on a clean wire")
	}
	held("after a clean transfer")

	// One lost data segment: the receiver parks the next one, the sender
	// hears of it in SACK blocks.
	dropNext = true
	var got []byte
	buf := make([]byte, 64<<10)
	sent := 0
	e.pumpUntil(4000, "the receiver parks a segment", func() bool {
		if sent == 0 {
			sent, _ = e.stkA.Write(cfd, payload)
		}
		return server.cold != nil
	})
	if len(server.rcvOOO()) == 0 {
		t.Fatalf("the server took a cold record holding no parked run")
	}
	e.pumpUntil(4000, "the sender hears of the hole", func() bool { return client.cold != nil })
	if len(client.sacked()) == 0 {
		t.Fatalf("the client took a cold record with an empty scoreboard")
	}
	e.pumpUntil(40000, "the lost segment is refilled", func() bool {
		if n, _ := e.stkB.Read(afd, buf); n > 0 {
			got = append(got, buf[:n]...)
		}
		return len(got) == sent
	})
	if !bytes.Equal(got, payload[:sent]) || e.stkA.Stats().SACKRetransmit == 0 {
		t.Fatalf("recovery: %d of %d bytes intact, %s", len(got), sent, e.stkA.Stats().RecoverySummary())
	}

	// A receiver that reads nothing closes its window: the sender's
	// persist timer is what takes its record, not a duplicate ACK.
	e.stkB.SetTCPTuning(TCPTuning{SACK: true, SndBufBytes: 64 << 10, RcvBufBytes: 8 << 10})
	cfd2, afd2 := e.connectPair(7006)
	zw := e.stkA.sockOf(cfd2).conn
	dupAcks := e.stkA.Stats().DupAcks
	if n, _ := e.stkA.Write(cfd2, payload[:24<<10]); n != 24<<10 {
		t.Fatalf("wrote %d of %d bytes", n, 24<<10)
	}
	e.pumpUntil(40000, "the sender arms its persist timer", func() bool { return zw.persistAt() != 0 })
	if d := e.stkA.Stats().DupAcks - dupAcks; d != 0 {
		t.Fatalf("%d duplicate ACKs before the window closed: the record is not the zero window's", d)
	}
	got = got[:0]
	e.pumpUntil(400000, "the zero-window transfer completes", func() bool {
		if n, _ := e.stkB.Read(afd2, buf); n > 0 {
			got = append(got, buf[:n]...)
		}
		return len(got) == 24<<10
	})

	// A CUBIC sender on a clean wire: no record in slow start, one on
	// its first avoidance ACK, where its epoch opens. ssthresh is lowered
	// so avoidance starts twenty segments of growth in.
	e.stkA.SetTCPTuning(TCPTuning{SACK: true, SndBufBytes: 64 << 10, RcvBufBytes: 64 << 10, Congestion: CCCubic})
	e.stkB.SetTCPTuning(tune)
	cfd3, afd3 := e.connectPair(7007)
	cu := e.stkA.sockOf(cfd3).conn
	if cu.cc != ccCubic {
		t.Fatalf("the CUBIC stack built a conn running algorithm %d", cu.cc)
	}
	cu.ssthresh = cu.cwnd + 20*uint32(cu.sndMSS)
	stream := func() {
		e.stkA.Write(cfd3, payload)
		for {
			if n, _ := e.stkB.Read(afd3, buf); n <= 0 {
				return
			}
		}
	}
	retx := e.stkA.Stats().Retransmit
	slowStart := false
	e.pumpUntil(40000, "the first avoidance ACK", func() bool {
		stream()
		if cu.cold == nil {
			slowStart = slowStart || cu.cwnd > initialCwnd
			return false
		}
		if cu.cwnd < cu.ssthresh {
			t.Fatalf("the CUBIC sender took its record in slow start (cwnd %d, ssthresh %d)", cu.cwnd, cu.ssthresh)
		}
		return true
	})
	if !slowStart || cu.cold.cubic.epochStart == 0 || e.stkA.Stats().Retransmit != retx {
		t.Fatalf("CUBIC record: grew in slow start without one %v, epoch opened at %d, %d retransmits; want true, > 0, 0",
			slowStart, cu.cold.cubic.epochStart, e.stkA.Stats().Retransmit-retx)
	}
	// One lost segment: the loss is recorded in the same record, which
	// outlives the recovery.
	rec := cu.cold
	dropNext = true
	e.pumpUntil(40000, "the CUBIC sender recovers", func() bool {
		stream()
		return e.stkA.Stats().Retransmit > retx && !cu.inRecovery() && !dropNext
	})
	if cu.cold != rec || rec.cubic.wLastMax == 0 {
		t.Fatalf("after recovery: record kept %v, plateau %.1f segments; want the same record holding the loss",
			cu.cold == rec, rec.cubic.wLastMax)
	}
	e.pumpUntil(40000, "the CUBIC sender drains", func() bool {
		for {
			if n, _ := e.stkB.Read(afd3, buf); n <= 0 {
				return cu.sndBuf.Len() == 0
			}
		}
	})

	// Close everything: the clients' records go back at TIME_WAIT, the
	// servers' when the arena takes the conns.
	for _, p := range [][2]int{{cfd, afd}, {cfd2, afd2}, {cfd3, afd3}} {
		e.stkA.Close(p[0])
		e.pumpUntil(8000, "server sees FIN", func() bool { return e.stkB.ConnState(p[1]) == "CLOSE_WAIT" })
		e.stkB.Close(p[1])
	}
	e.pumpUntil(8000, "every client in TIME_WAIT, every server pooled", func() bool {
		return e.stkA.ConnCount() == 3 && client.state == tcpTimeWait && zw.state == tcpTimeWait &&
			cu.state == tcpTimeWait && len(e.stkB.connArena.free) == 3
	})
	for _, s := range []*Stack{e.stkA, e.stkB} {
		for c := range s.conns.all() {
			if c.cold != nil {
				t.Errorf("a %s conn holds its cold record", c.state)
			}
		}
		for _, c := range s.connArena.free {
			if c.cold != nil {
				t.Error("a pooled conn holds its cold record")
			}
		}
		if issued := s.coldArena.issued; issued == 0 || issued != len(s.coldArena.free) {
			t.Errorf("%d cold records issued, %d back on the pool; want every one back", issued, len(s.coldArena.free))
		}
	}
}

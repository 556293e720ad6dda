package fstack

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/hostos"
)

// TestTimeWaitReleasesRings pins where a closed connection's socket
// rings go: back to the segment the moment it enters TIME_WAIT. N
// connections that moved data both ways close actively and sit in
// TIME_WAIT; N fresh connections then move data both ways, and the
// client's segment must not grow (a TIME_WAIT conn that kept its rings
// would hold both until 2MSL ran out). The fresh connections run on
// recycled rings, so each must read exactly its own bytes; and a
// TIME_WAIT conn whose rings are gone must still ACK a retransmitted
// FIN, and restart its 2MSL.
func TestTimeWaitReleasesRings(t *testing.T) {
	const n, ring = 16, 8 << 10
	e := newEnv(t, false)
	tune := TCPTuning{SndBufBytes: ring, RcvBufBytes: ring}
	e.stkA.SetTCPTuning(tune)
	e.stkB.SetTCPTuning(tune)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	e.stkB.Listen(lfd, 8)
	timeWait := func() []*tcpConn {
		var tw []*tcpConn
		for c := range e.stkA.conns.all() {
			if c.state == tcpTimeWait {
				tw = append(tw, c)
			}
		}
		slices.SortFunc(tw, func(a, b *tcpConn) int { return cmp.Compare(a.seq, b.seq) })
		return tw
	}
	// exchange sends a distinct message each way and checks each side
	// reads exactly it, whatever a recycled ring held before.
	buf := make([]byte, 2*ring)
	exchange := func(cfd, afd int, tag string) {
		t.Helper()
		for _, d := range []struct {
			from, to *Stack
			wfd, rfd int
			msg      []byte
		}{
			{e.stkA, e.stkB, cfd, afd, []byte("client " + tag)},
			{e.stkB, e.stkA, afd, cfd, []byte("server " + tag)},
		} {
			if k, errno := d.from.Write(d.wfd, d.msg); errno != hostos.OK || k != len(d.msg) {
				t.Fatalf("%s: write = %d, %v", d.msg, k, errno)
			}
			var got []byte
			e.pumpUntil(8000, string(d.msg)+" arrives", func() bool {
				if k, errno := d.to.Read(d.rfd, buf); errno == hostos.OK {
					got = append(got, buf[:k]...)
				}
				return len(got) >= len(d.msg)
			})
			if !bytes.Equal(got, d.msg) {
				t.Fatalf("read %q, want %q", got, d.msg)
			}
		}
	}

	// All n hold both rings at once before any closes, so the segment
	// carves 2n of them.
	var cfds, afds [n]int
	for i := range cfds {
		cfds[i], afds[i] = establish(e, lfd, 7001, uint16(20000+i))
		exchange(cfds[i], afds[i], fmt.Sprintf("old %02d", i))
	}
	for i := range cfds {
		e.stkA.Close(cfds[i])
		e.pumpUntil(8000, "server sees FIN", func() bool { return e.stkB.ConnState(afds[i]) == "CLOSE_WAIT" })
		e.stkB.Close(afds[i])
	}
	e.pumpUntil(8000, "every client conn reaches TIME_WAIT", func() bool {
		return len(timeWait()) == n && e.stkB.ConnCount() == 0
	})
	holding := 0
	for _, c := range timeWait() {
		if c.sndBuf.backed || c.rcvBuf.backed {
			holding++
		}
	}
	if holding > 0 {
		t.Errorf("%d of %d TIME_WAIT conns still hold their rings", holding, n)
	}
	used := e.stkA.seg.Used()

	for i := 0; i < n; i++ {
		cfd, afd := establish(e, lfd, 7001, uint16(21000+i))
		exchange(cfd, afd, fmt.Sprintf("new %02d, a longer message than any old one", i))
	}
	tw := timeWait()
	if len(tw) != n {
		t.Fatalf("%d conns in TIME_WAIT after the fresh ones wrote, want all %d", len(tw), n)
	}
	if got := e.stkA.seg.Used(); got != used {
		t.Errorf("client segment grew %d B while %d conns sat in TIME_WAIT, want 0 (their rings are free)", got-used, n)
	}

	// TIME_WAIT keeps its 2MSL deadline in rtxAt. A stray pure ACK and
	// an old data segment leave it where it is. From here only the client
	// polls: the server, whose side of the tuple is long gone, would
	// answer each of the client's ACKs with a reset.
	c := tw[0]
	pumpA := func(maxTicks int, what string, cond func() bool) {
		t.Helper()
		for i := 0; !cond(); i++ {
			if i == maxTicks {
				t.Fatalf("condition %q not reached after %d ticks", what, maxTicks)
			}
			e.stkA.PollOnce()
			e.clk.Advance(5000)
		}
	}
	inject := func(h TCPHeader, payload []byte) {
		h.SrcPort, h.DstPort, h.Window = c.tuple.remote.Port, c.tuple.local.Port, ring
		seg := make([]byte, h.encodedLen()+len(payload))
		copy(seg[h.encodedLen():], payload)
		putTCPHeaderEager(seg, h, c.tuple.remote.IP, c.tuple.local.IP, len(seg))
		e.stkA.inputTCP(e.stkA.nifByIP(c.tuple.local.IP), IPv4Header{Src: c.tuple.remote.IP, Dst: c.tuple.local.IP, Proto: ProtoTCP}, seg, false)
	}
	retx := e.stkA.stats.Retransmit
	twEnd := c.rtxAt
	old := []byte("old")
	inject(TCPHeader{Seq: c.rcvNxt, Ack: c.sndNxt, Flags: TCPAck}, nil)
	inject(TCPHeader{Seq: c.rcvNxt - 1 - uint32(len(old)), Ack: c.sndNxt, Flags: TCPAck}, old)
	e.stkA.PollOnce()
	if c.state != tcpTimeWait || c.rtxAt != twEnd {
		t.Fatalf("after a stray ACK and old data: state %v, rtxAt %d; want TIME_WAIT ending at %d", c.state, c.rtxAt, twEnd)
	}

	// A retransmitted FIN (our ACK of it was lost) draws a fresh ACK.
	var acks []TCPHeader
	e.portB.SetRxTap(func(_ int64, frame []byte) {
		if _, h, _, ok := wireSeg(frame, nil); ok && h.SrcPort == c.tuple.local.Port {
			acks = append(acks, h)
		}
	})
	at := e.clk.Now()
	inject(TCPHeader{Seq: c.rcvNxt - 1, Ack: c.sndNxt, Flags: TCPFin | TCPAck}, nil)
	pumpA(100, "ACK of the retransmitted FIN", func() bool { return len(acks) > 0 })
	e.portB.SetRxTap(nil)
	if h := acks[0]; h.Flags != TCPAck || h.Ack != c.rcvNxt || h.Seq != c.sndNxt {
		t.Errorf("answer to a retransmitted FIN: flags %#x seq %d ack %d, want a bare ACK seq %d ack %d",
			h.Flags, h.Seq, h.Ack, c.sndNxt, c.rcvNxt)
	}
	if c.state != tcpTimeWait || c.rtxAt != at+timeWaitDur || c.sndBuf.backed || c.rcvBuf.backed {
		t.Errorf("after the FIN: state %v, 2MSL ends %d ns later, rings backed %v/%v; want TIME_WAIT restarted for %d ns holding none",
			c.state, c.rtxAt-at, c.sndBuf.backed, c.rcvBuf.backed, int64(timeWaitDur))
	}

	// The connection leaves at the restarted deadline, not the first one
	// its wheel entry was filed for, and never retransmits.
	end := c.rtxAt
	pumpA(int(2*timeWaitDur/5000), "TIME_WAIT ends", func() bool { return c.state == tcpClosed })
	if now := e.clk.Now(); now < end || now > end+5000 {
		t.Errorf("TIME_WAIT ended %d ns after its deadline, want within one tick", now-end)
	}
	if got := e.stkA.stats.Retransmit - retx; got != 0 {
		t.Errorf("TIME_WAIT counted %d retransmissions, want 0", got)
	}
}

// TestRingsBackOnFirstByte pins when a connection's ring takes its
// segment memory: on its first byte, not when the connection is made. A
// default-tuned pair connects and accepts with neither segment moving;
// the writer's first Write backs its send ring alone, and the reader's
// first in-order byte its receive ring alone.
func TestRingsBackOnFirstByte(t *testing.T) {
	e := newEnv(t, false)
	usedA, usedB := e.stkA.seg.Used(), e.stkB.seg.Used()
	cfd, afd := e.connectPair(7002)
	if a, b := e.stkA.seg.Used(), e.stkB.seg.Used(); a != usedA || b != usedB {
		t.Fatalf("connect and accept carved %d B and %d B of segment, want none", a-usedA, b-usedB)
	}
	client, server := e.stkA.sockOf(cfd).conn, e.stkB.sockOf(afd).conn
	backed := func() [4]bool {
		return [4]bool{client.sndBuf.backed, client.rcvBuf.backed, server.sndBuf.backed, server.rcvBuf.backed}
	}
	// grew checks a segment grew by one ring of size, up to its alignment.
	grew := func(name string, s *Stack, from uint64, size int) {
		t.Helper()
		if got := s.seg.Used() - from; got < uint64(size) || got >= uint64(size)+64 {
			t.Errorf("%s segment grew %d B, want one %d B ring", name, got, size)
		}
	}
	if k, errno := e.stkA.Write(cfd, []byte("x")); errno != hostos.OK || k != 1 {
		t.Fatalf("write = %d, %v", k, errno)
	}
	if got, want := backed(), [4]bool{true, false, false, false}; got != want {
		t.Fatalf("after the first Write, rings backed (client snd, rcv, server snd, rcv) %v, want %v", got, want)
	}
	grew("writer's", e.stkA, usedA, sndBufSize)
	e.pumpUntil(4000, "the byte arrives", func() bool { return server.rcvBuf.Len() == 1 })
	if got, want := backed(), [4]bool{true, false, false, true}; got != want {
		t.Fatalf("after the first byte arrived, rings backed (client snd, rcv, server snd, rcv) %v, want %v", got, want)
	}
	grew("reader's", e.stkB, usedB, rcvBufSize)
}

// TestRecycledConnTakesNewTuning: a conn the arena holds is rebuilt to
// the tuning in force when it is taken again, not dropped for a new one.
// After SetTCPTuning changes both ring sizes and the congestion
// control, the next accepted conn is the pooled struct with the new
// rings and algorithm, the slab untouched, and it moves bytes both ways.
func TestRecycledConnTakesNewTuning(t *testing.T) {
	e := newEnv(t, false)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7003)
	e.stkB.Listen(lfd, 8)
	cfd, afd := establish(e, lfd, 7003, 0)
	e.stkA.Close(cfd)
	e.pumpUntil(4000, "server sees FIN", func() bool { return e.stkB.ConnState(afd) == "CLOSE_WAIT" })
	e.stkB.Close(afd)
	e.pumpUntil(4000, "the arena takes the server conn", func() bool { return len(e.stkB.connArena.free) == 1 })
	pooled := e.stkB.connArena.free[0]
	if pooled.cc != ccReno || pooled.sndBuf.size != sndBufSize || pooled.rcvBuf.size != rcvBufSize {
		t.Fatalf("pooled conn: algorithm %d, rings %d/%d; want the default tuning", pooled.cc, pooled.sndBuf.size, pooled.rcvBuf.size)
	}
	const snd, rcv = 16 << 10, 32 << 10
	e.stkB.SetTCPTuning(TCPTuning{SndBufBytes: snd, RcvBufBytes: rcv, Congestion: CCCubic})
	slab := e.stkB.connArena.issued

	cfd, afd = establish(e, lfd, 7003, 0)
	c := e.stkB.sockOf(afd).conn
	if c != pooled || len(e.stkB.connArena.free) != 0 || e.stkB.connArena.issued != slab {
		t.Fatalf("accepted the pooled conn: %v; %d pooled left, slab %d → %d; want it, none left, the slab untouched",
			c == pooled, len(e.stkB.connArena.free), slab, e.stkB.connArena.issued)
	}
	if c.cc != ccCubic || int(c.sndBuf.size) != snd || int(c.rcvBuf.size) != rcv {
		t.Fatalf("recycled conn: algorithm %d, rings %d/%d; want %d (cubic), %d/%d", c.cc, c.sndBuf.size, c.rcvBuf.size, ccCubic, snd, rcv)
	}
	buf := make([]byte, 64)
	for _, d := range []struct {
		from, to *Stack
		wfd, rfd int
		msg      string
	}{
		{e.stkA, e.stkB, cfd, afd, "to the recycled conn"},
		{e.stkB, e.stkA, afd, cfd, "from the recycled conn"},
	} {
		if k, errno := d.from.Write(d.wfd, []byte(d.msg)); errno != hostos.OK || k != len(d.msg) {
			t.Fatalf("%s: write = %d, %v", d.msg, k, errno)
		}
		var got []byte
		e.pumpUntil(4000, d.msg, func() bool {
			if k, errno := d.to.Read(d.rfd, buf); errno == hostos.OK {
				got = append(got, buf[:k]...)
			}
			return len(got) >= len(d.msg)
		})
		if string(got) != d.msg {
			t.Fatalf("read %q, want %q", got, d.msg)
		}
	}
}

// TestWriteIntoAFullSegment: a ring backs on its first write, so a
// segment with no room left for it refuses that write with ENOMEM — what
// Connect answered when rings backed at creation — not EFAULT, and the
// connection stays up.
func TestWriteIntoAFullSegment(t *testing.T) {
	e := newEnv(t, false)
	cfd, _ := e.connectPair(7004)
	for n := uint64(1 << 40); n > 0; n /= 2 {
		for {
			if _, err := e.stkA.seg.Alloc(n, 1); err != nil {
				break
			}
		}
	}
	if k, errno := e.stkA.Write(cfd, []byte("x")); errno != hostos.ENOMEM || k != -1 {
		t.Fatalf("write into a full segment = %d, %v; want -1, ENOMEM", k, errno)
	}
	if got := e.stkA.ConnState(cfd); got != "ESTABLISHED" {
		t.Fatalf("after the refused write the connection is %s, want ESTABLISHED", got)
	}
}

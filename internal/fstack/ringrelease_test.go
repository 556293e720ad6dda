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
	tune := TCPTuning{SndBufBytes: ring, RcvBufBytes: ring, LazyBuffers: true}
	e.stkA.SetTCPTuning(tune)
	e.stkB.SetTCPTuning(tune)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	e.stkB.Listen(lfd, 8)
	timeWait := func() []*tcpConn {
		var tw []*tcpConn
		for _, c := range e.stkA.conns {
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

	// A retransmitted FIN (our ACK of it was lost) draws a fresh ACK.
	c := tw[0]
	fin := TCPHeader{SrcPort: c.tuple.remote.Port, DstPort: c.tuple.local.Port,
		Seq: c.rcvNxt - 1, Ack: c.sndNxt, Flags: TCPFin | TCPAck, Window: ring}
	seg := make([]byte, fin.encodedLen())
	PutTCPHeader(seg, fin, c.tuple.remote.IP, c.tuple.local.IP, len(seg))
	var acks []TCPHeader
	e.portB.SetRxTap(func(_ int64, frame []byte) {
		ip, ihl, err := ParseIPv4Header(frame[EthHeaderLen:])
		if err != nil || ip.Proto != ProtoTCP {
			return
		}
		if h, _, err := ParseTCPHeader(frame[EthHeaderLen+ihl:], ip.Src, ip.Dst); err == nil && h.SrcPort == c.tuple.local.Port {
			acks = append(acks, h)
		}
	})
	at := e.clk.Now()
	e.stkA.inputTCP(c.nif, IPv4Header{Src: c.tuple.remote.IP, Dst: c.tuple.local.IP, Proto: ProtoTCP}, seg)
	e.pumpUntil(100, "ACK of the retransmitted FIN", func() bool { return len(acks) > 0 })
	e.portB.SetRxTap(nil)
	if h := acks[0]; h.Flags != TCPAck || h.Ack != c.rcvNxt || h.Seq != c.sndNxt {
		t.Errorf("answer to a retransmitted FIN: flags %#x seq %d ack %d, want a bare ACK seq %d ack %d",
			h.Flags, h.Seq, h.Ack, c.sndNxt, c.rcvNxt)
	}
	if c.state != tcpTimeWait || c.timeWaitAt != at+timeWaitDur || c.sndBuf.backed || c.rcvBuf.backed {
		t.Errorf("after the FIN: state %v, 2MSL ends %d ns later, rings backed %v/%v; want TIME_WAIT restarted for %d ns holding none",
			c.state, c.timeWaitAt-at, c.sndBuf.backed, c.rcvBuf.backed, int64(timeWaitDur))
	}
}

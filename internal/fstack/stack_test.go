package fstack

import (
	"bytes"
	"testing"

	"repro/internal/dpdk"
	"repro/internal/hostos"
	"repro/internal/sim"
)

func TestTCPHandshake(t *testing.T) {
	for _, capMode := range []bool{false, true} {
		name := map[bool]string{false: "raw", true: "cheri"}[capMode]
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, capMode)
			cfd, afd := e.connectPair(5001)
			if st := e.stkA.ConnState(cfd); st != "ESTABLISHED" {
				t.Fatalf("client state %s", st)
			}
			if st := e.stkB.ConnState(afd); st != "ESTABLISHED" {
				t.Fatalf("server state %s", st)
			}
		})
	}
}

func TestTCPDataTransfer(t *testing.T) {
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)

	msg := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
	sent := 0
	e.pumpUntil(8000, "write all", func() bool {
		for sent < len(msg) {
			n, errno := e.stkA.Write(cfd, msg[sent:])
			if errno == hostos.EAGAIN {
				return false
			}
			if errno != hostos.OK {
				t.Fatalf("write: %v", errno)
			}
			sent += n
		}
		return true
	})
	var got []byte
	buf := make([]byte, 4096)
	e.pumpUntil(8000, "read all", func() bool {
		for {
			n, errno := e.stkB.Read(afd, buf)
			if errno == hostos.EAGAIN {
				break
			}
			if errno != hostos.OK {
				t.Fatalf("read: %v", errno)
			}
			got = append(got, buf[:n]...)
			if n == 0 {
				break
			}
		}
		return len(got) >= len(msg)
	})
	if !bytes.Equal(got, msg) {
		t.Fatalf("data corrupted: %d bytes vs %d", len(got), len(msg))
	}
}

func TestTCPBidirectional(t *testing.T) {
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	// Both directions at once.
	a2b := bytes.Repeat([]byte{0xAA}, 5000)
	b2a := bytes.Repeat([]byte{0xBB}, 7000)
	e.stkA.Write(cfd, a2b)
	e.stkB.Write(afd, b2a)
	var gotB, gotA []byte
	buf := make([]byte, 2048)
	e.pumpUntil(8000, "both directions", func() bool {
		if n, errno := e.stkB.Read(afd, buf); errno == hostos.OK && n > 0 {
			gotB = append(gotB, buf[:n]...)
		}
		if n, errno := e.stkA.Read(cfd, buf); errno == hostos.OK && n > 0 {
			gotA = append(gotA, buf[:n]...)
		}
		return len(gotB) == len(a2b) && len(gotA) == len(b2a)
	})
	if !bytes.Equal(gotB, a2b) || !bytes.Equal(gotA, b2a) {
		t.Fatal("bidirectional data corrupted")
	}
}

func TestTCPLargeTransferExceedsWindow(t *testing.T) {
	// 1 MiB >> 64 KiB receive window: forces window management, delayed
	// acks, congestion control.
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	const total = 1 << 20
	chunk := bytes.Repeat([]byte{0xCD}, 32768)
	sent, rcvd := 0, 0
	buf := make([]byte, 65536)
	e.pumpUntil(60000, "1MiB transfer", func() bool {
		for sent < total {
			n, errno := e.stkA.Write(cfd, chunk[:min(len(chunk), total-sent)])
			if errno == hostos.EAGAIN {
				break
			}
			if errno != hostos.OK {
				t.Fatalf("write: %v", errno)
			}
			sent += n
		}
		for {
			n, errno := e.stkB.Read(afd, buf)
			if errno != hostos.OK || n == 0 {
				break
			}
			rcvd += n
		}
		return rcvd >= total
	})
	if rcvd != total {
		t.Fatalf("received %d of %d", rcvd, total)
	}
}

func TestTCPCloseHandshake(t *testing.T) {
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	if errno := e.stkA.Close(cfd); errno != hostos.OK {
		t.Fatal(errno)
	}
	// B sees EOF.
	buf := make([]byte, 16)
	e.pumpUntil(8000, "EOF at server", func() bool {
		n, errno := e.stkB.Read(afd, buf)
		return errno == hostos.OK && n == 0
	})
	if errno := e.stkB.Close(afd); errno != hostos.OK {
		t.Fatal(errno)
	}
	// Both connection tables drain (TIME_WAIT expires).
	e.pumpUntil(40000, "tables drained", func() bool {
		na := e.stkA.conns.n
		nb := e.stkB.conns.n
		return na == 0 && nb == 0
	})
}

func TestTCPConnectRefused(t *testing.T) {
	e := newEnv(t, false)
	cfd, _ := e.stkA.Socket(SockStream)
	if errno := e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 9999); errno != hostos.EINPROGRESS {
		t.Fatal(errno)
	}
	// No listener on B: the SYN gets an RST.
	e.pumpUntil(4000, "reset delivered", func() bool {
		_, errno := e.stkA.Read(cfd, make([]byte, 1))
		return errno == hostos.ECONNRESET
	})
}

func TestTCPDataSurvivesLoss(t *testing.T) {
	// Stall the receiver so the RX FIFO tail-drops, then let it drain:
	// retransmission must deliver everything.
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	msg := bytes.Repeat([]byte{0x42}, 200*1024)
	sent := 0
	// Phase 1: sender pumps alone past its RTO; the receiver does not
	// poll, so in-flight segments sit unacknowledged and the sender must
	// retransmit (50 µs per tick * 3000 = 150 ms > the 100 ms initial
	// RTO).
	for i := 0; i < 3000; i++ {
		if sent < len(msg) {
			if n, errno := e.stkA.Write(cfd, msg[sent:min(sent+8192, len(msg))]); errno == hostos.OK {
				sent += n
			}
		}
		e.stkA.PollOnce()
		e.clk.Advance(50000)
	}
	// Phase 2: both poll; retransmissions recover.
	rcvd := 0
	buf := make([]byte, 65536)
	e.pumpUntil(120000, "recovered transfer", func() bool {
		for sent < len(msg) {
			n, errno := e.stkA.Write(cfd, msg[sent:min(sent+8192, len(msg))])
			if errno != hostos.OK {
				break
			}
			sent += n
		}
		for {
			n, errno := e.stkB.Read(afd, buf)
			if errno != hostos.OK || n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				if buf[i] != 0x42 {
					t.Fatal("corrupted byte after recovery")
				}
			}
			rcvd += n
		}
		return sent == len(msg) && rcvd == len(msg)
	})
	st := e.stkA.Stats()
	if st.Retransmit == 0 {
		t.Fatal("expected retransmissions after receiver stall")
	}
}

func TestARPResolutionHappensOnce(t *testing.T) {
	e := newEnv(t, false)
	e.connectPair(5001)
	sa := e.stkA.Stats()
	if sa.ArpTx == 0 {
		t.Fatal("no ARP was sent")
	}
	if sa.ArpTx > 2 {
		t.Fatalf("ARP storm: %d requests", sa.ArpTx)
	}
}

func TestICMPPing(t *testing.T) {
	e := newEnv(t, false)
	// Hand-craft an echo request from A to B via the stack's TX helpers.
	nif := e.stkA.nifs[0]
	payload := []byte("abcdefgh")
	m, frame := e.stkA.txAlloc(IPv4HeaderLen + ICMPHeaderLen + len(payload))
	if m == nil {
		t.Fatal("alloc failed")
	}
	seg := frame[EthHeaderLen+IPv4HeaderLen:]
	copy(seg[ICMPHeaderLen:], payload)
	PutICMPEcho(seg, ICMPEcho{Type: ICMPEchoRequest, ID: 77, Seq: 1})
	e.stkA.sendIPv4(nif, m, frame, IP4(10, 0, 0, 2), ProtoICMP, ICMPHeaderLen+len(payload))

	// The reply raises A's RX counter with an echo-reply frame; detect it
	// by polling stats.
	e.pumpUntil(4000, "echo reply", func() bool {
		return e.stkA.Stats().RxFrames >= 1
	})
}

func TestUDPSendRecv(t *testing.T) {
	e := newEnv(t, false)
	sfd, _ := e.stkB.Socket(SockDgram)
	if errno := e.stkB.Bind(sfd, IPv4Addr{}, 14550); errno != hostos.OK {
		t.Fatal(errno)
	}
	cfd, _ := e.stkA.Socket(SockDgram)
	msg := []byte("HEARTBEAT mavlink-ish")
	if _, errno := e.stkA.SendTo(cfd, msg, IP4(10, 0, 0, 2), 14550); errno != hostos.OK {
		t.Fatal(errno)
	}
	buf := make([]byte, 256)
	var got []byte
	var from IPv4Addr
	e.pumpUntil(4000, "datagram", func() bool {
		n, src, _, errno := e.stkB.RecvFrom(sfd, buf)
		if errno == hostos.OK {
			got = append([]byte{}, buf[:n]...)
			from = src
			return true
		}
		return false
	})
	if !bytes.Equal(got, msg) || from != IP4(10, 0, 0, 1) {
		t.Fatalf("got %q from %v", got, from)
	}
}

func TestUDPOversizedRejected(t *testing.T) {
	e := newEnv(t, false)
	cfd, _ := e.stkA.Socket(SockDgram)
	big := make([]byte, MTU)
	if _, errno := e.stkA.SendTo(cfd, big, IP4(10, 0, 0, 2), 14550); errno != hostos.EMSGSIZE {
		t.Fatalf("oversized datagram: %v", errno)
	}
}

func TestEpollReadiness(t *testing.T) {
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	ep := e.stkB.EpollCreate()
	if errno := e.stkB.EpollCtl(ep, EpollCtlAdd, afd, EPOLLIN|EPOLLOUT); errno != hostos.OK {
		t.Fatal(errno)
	}
	evs := make([]Event, 8)
	// Writable immediately, not readable.
	n, _ := e.stkB.EpollWait(ep, evs)
	if n != 1 || evs[0].Events&EPOLLOUT == 0 || evs[0].Events&EPOLLIN != 0 {
		t.Fatalf("initial events: %+v (n=%d)", evs[0], n)
	}
	// After data arrives: readable.
	e.stkA.Write(cfd, []byte("ping"))
	e.pumpUntil(4000, "readable", func() bool {
		n, _ := e.stkB.EpollWait(ep, evs)
		return n == 1 && evs[0].Events&EPOLLIN != 0
	})
	// Modify to OUT only.
	if errno := e.stkB.EpollCtl(ep, EpollCtlMod, afd, EPOLLOUT); errno != hostos.OK {
		t.Fatal(errno)
	}
	n, _ = e.stkB.EpollWait(ep, evs)
	if n != 1 || evs[0].Events&EPOLLIN != 0 {
		t.Fatal("mod did not mask EPOLLIN")
	}
	// Delete.
	if errno := e.stkB.EpollCtl(ep, EpollCtlDel, afd, 0); errno != hostos.OK {
		t.Fatal(errno)
	}
	if n, _ := e.stkB.EpollWait(ep, evs); n != 0 {
		t.Fatal("deleted fd still reported")
	}
}

func TestEpollListenerReadiness(t *testing.T) {
	e := newEnv(t, false)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 6000)
	e.stkB.Listen(lfd, 4)
	ep := e.stkB.EpollCreate()
	e.stkB.EpollCtl(ep, EpollCtlAdd, lfd, EPOLLIN)
	evs := make([]Event, 4)
	if n, _ := e.stkB.EpollWait(ep, evs); n != 0 {
		t.Fatal("listener ready without connections")
	}
	cfd, _ := e.stkA.Socket(SockStream)
	e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 6000)
	e.pumpUntil(4000, "accept ready", func() bool {
		n, _ := e.stkB.EpollWait(ep, evs)
		return n == 1 && evs[0].Events&EPOLLIN != 0
	})
}

func TestSocketAPIErrors(t *testing.T) {
	e := newEnv(t, false)
	s := e.stkA
	if _, errno := s.Socket(99); errno != hostos.EINVAL {
		t.Fatal("bad type accepted")
	}
	if errno := s.Bind(999, IPv4Addr{}, 80); errno != hostos.EBADF {
		t.Fatal("bind on bad fd")
	}
	fd, _ := s.Socket(SockStream)
	if errno := s.Bind(fd, IP4(192, 168, 9, 9), 80); errno != hostos.EINVAL {
		t.Fatal("bind to foreign IP accepted")
	}
	if errno := s.Listen(fd, 4); errno != hostos.EINVAL {
		t.Fatal("listen before bind accepted")
	}
	if _, errno := s.Write(fd, []byte("x")); errno != hostos.ENOTCONN {
		t.Fatal("write on unconnected socket accepted")
	}
	if _, errno := s.Read(fd, make([]byte, 1)); errno != hostos.ENOTCONN {
		t.Fatal("read on unconnected socket accepted")
	}
	if errno := s.Close(fd); errno != hostos.OK {
		t.Fatal("close failed")
	}
	if errno := s.Close(fd); errno != hostos.EBADF {
		t.Fatal("double close accepted")
	}
	// Two streams binding the same endpoint: the second bind collides
	// with the existing listener.
	a, _ := s.Socket(SockStream)
	b, _ := s.Socket(SockStream)
	s.Bind(a, IPv4Addr{}, 7100)
	s.Listen(a, 1)
	if errno := s.Bind(b, IPv4Addr{}, 7100); errno != hostos.EADDRINUSE {
		t.Fatalf("duplicate stream bind: %v", errno)
	}
}

func TestConnStateDiagnostics(t *testing.T) {
	e := newEnv(t, false)
	cfd, _ := e.connectPair(5001)
	if st := e.stkA.ConnState(cfd); st != "ESTABLISHED" {
		t.Fatal(st)
	}
	if st := e.stkA.ConnState(12345); st != "NONE" {
		t.Fatal(st)
	}
}

func TestLoopRunOnceCountsIterations(t *testing.T) {
	e := newEnv(t, false)
	calls := 0
	e.stkA.OnLoop = func(now int64) { calls++ }
	for i := 0; i < 5; i++ {
		e.stkA.RunOnce()
	}
	if calls != 5 {
		t.Fatalf("callback ran %d times", calls)
	}
	if e.stkA.Iterations() != 5 {
		t.Fatalf("iterations = %d", e.stkA.Iterations())
	}
}

func TestLoopCallbackSeesMonotonicTime(t *testing.T) {
	e := newEnv(t, false)
	var last int64 = -1
	ok := true
	e.stkA.OnLoop = func(now int64) {
		if now < last {
			ok = false
		}
		last = now
	}
	for i := 0; i < 10; i++ {
		e.stkA.RunOnce()
		e.clk.Advance(1000)
	}
	if !ok {
		t.Fatal("time went backwards inside the loop")
	}
}

// stepCounter is an EthDevice that counts the calls a poll makes on it.
type stepCounter struct {
	EthDevice
	calls int
}

func (d *stepCounter) RxBurst(out []*dpdk.Mbuf) int  { d.calls++; return d.EthDevice.RxBurst(out) }
func (d *stepCounter) TxBurst(bufs []*dpdk.Mbuf) int { d.calls++; return d.EthDevice.TxBurst(bufs) }
func (d *stepCounter) Poll()                         { d.calls++; d.EthDevice.Poll() }

// txRefuser is an EthDevice whose transmit refuses the next refuse
// bursts; tries counts every burst offered.
type txRefuser struct {
	EthDevice
	refuse, tries int
}

func (d *txRefuser) TxBurst(bufs []*dpdk.Mbuf) int {
	d.tries++
	if d.refuse > 0 {
		d.refuse--
		return 0
	}
	return d.EthDevice.TxBurst(bufs)
}

// TestRefusedTransmitRetriesNextPoll pins the visit list's one pass: a
// connection whose transmit the ring refuses queues itself, and one
// refused during its own visit is retried by the next poll, not again
// in the same pass — a walk over what the pass itself queued would
// spin for as long as the ring stays full.
func TestRefusedTransmitRetriesNextPoll(t *testing.T) {
	e := newEnv(t, false)
	cfd, _ := e.connectPair(5060)
	nif := e.stkA.nifs[0]
	d := &txRefuser{EthDevice: nif.dev, refuse: 2}
	nif.dev = d
	s, c := e.stkA, e.stkA.sockOf(cfd).conn
	state := func(when string, tries int, queued bool) {
		t.Helper()
		inList := len(s.visit) == 1 && s.visit[0] == c
		if d.tries != tries || c.queued != queued || inList != queued || len(s.visit) > 1 {
			t.Fatalf("%s: %d transmits offered, queued %v, visit list %d long (holds the conn: %v); want %d offered, queued %v",
				when, d.tries, c.queued, len(s.visit), inList, tries, queued)
		}
	}
	if k, errno := s.Write(cfd, []byte("x")); k != 1 || errno != hostos.OK {
		t.Fatalf("write = %d, %v", k, errno)
	}
	state("after the refused write", 1, true)
	s.PollOnce()
	state("after the poll whose visit was refused", 2, true)
	s.PollOnce()
	state("after the poll that sent", 3, false)
	if c.sndNxt-c.sndUna != 1 {
		t.Fatalf("%d bytes in flight after the retry, want the written byte", c.sndNxt-c.sndUna)
	}
}

// TestConnClosedWhileQueuedIsRecycled: a connection on the visit list
// is not recycled, so one that is reset, or whose stack crashes, after
// its application closed it is recycled where it leaves the list — by
// the next poll's walk or by Crash — with its send ring back in the
// segment. Both once only dropped it, and its ring stayed carved.
func TestConnClosedWhileQueuedIsRecycled(t *testing.T) {
	for _, end := range []string{"reset", "crash"} {
		e := newEnv(t, false)
		cfd, _ := e.connectPair(5061)
		nif := e.stkA.nifs[0]
		nif.dev = &txRefuser{EthDevice: nif.dev, refuse: 1}
		s, c := e.stkA, e.stkA.sockOf(cfd).conn
		if k, errno := s.Write(cfd, []byte("x")); k != 1 || errno != hostos.OK {
			t.Fatalf("%s: write = %d, %v", end, k, errno)
		}
		s.Close(cfd)
		if end == "reset" {
			rst := TCPHeader{SrcPort: c.tuple.remote.Port, DstPort: c.tuple.local.Port, Seq: c.rcvNxt, Flags: TCPRst}
			seg := make([]byte, rst.encodedLen())
			putTCPHeaderEager(seg, rst, c.tuple.remote.IP, c.tuple.local.IP, len(seg))
			s.inputTCP(s.nifByIP(c.tuple.local.IP), IPv4Header{Src: c.tuple.remote.IP, Dst: c.tuple.local.IP, Proto: ProtoTCP}, seg, false)
			if c.state != tcpClosed || !c.queued || len(s.connArena.free) != 0 {
				t.Fatalf("reset: state %v, queued %v, %d pooled; want CLOSED, still queued, none pooled", c.state, c.queued, len(s.connArena.free))
			}
			s.PollOnce()
		} else {
			s.Crash()
		}
		if free := s.connArena.free; len(free) != 1 || free[0] != c || c.sndBuf.backed {
			t.Errorf("%s: %d pooled (the conn: %v), send ring backed %v; want the conn pooled, its ring back",
				end, len(free), len(free) == 1 && free[0] == c, c.sndBuf.backed)
		}
	}
}

// TestCrashedRunOnceRunsCallback: a crashed stack's iteration steps no
// device, but the user function still runs and the iteration counts.
func TestCrashedRunOnceRunsCallback(t *testing.T) {
	clk := sim.NewVClock()
	seg, pool, devs, _ := buildDevice(t, clk, "0000:03:00", 1, false, 1, 1)
	stk := NewStack(seg, pool, clk)
	d := &stepCounter{EthDevice: devs[0].Queue(0)}
	stk.AddNetIF(d, IP4(10, 0, 0, 1), IP4(255, 255, 255, 0))
	calls := 0
	stk.OnLoop = func(int64) { calls++ }
	stk.RunOnce()
	if d.calls == 0 || calls != 1 || stk.Iterations() != 1 {
		t.Fatalf("healthy iteration: %d device calls, %d callbacks, %d iterations", d.calls, calls, stk.Iterations())
	}
	stk.Crash()
	d.calls = 0
	stk.RunOnce()
	if d.calls != 0 {
		t.Fatalf("crashed iteration made %d device calls", d.calls)
	}
	if calls != 2 || stk.Iterations() != 2 {
		t.Fatalf("crashed iteration: %d callbacks, %d iterations; want 2, 2", calls, stk.Iterations())
	}
}

// TestSetTCPTuningRefusesABadTuning: a tuning no connection could be
// built with is refused where it is applied, and the stack keeps the
// tuning it had. A listener once took RcvBufBytes 3000 silently: the
// client reached ESTABLISHED while the server never made a connection
// (Accepts 0), because every graduation failed to build its rings.
func TestSetTCPTuningRefusesABadTuning(t *testing.T) {
	e := newEnv(t, false)
	const kept = 16 << 10
	if err := e.stkB.SetTCPTuning(TCPTuning{SndBufBytes: kept, RcvBufBytes: kept}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []TCPTuning{
		{RcvBufBytes: 3000},
		{SndBufBytes: -4096},
		{RcvBufBytes: maxRingBytes << 1},
		{Congestion: "vegas"},
		{WindowScale: MaxWScale + 1},
		{RTOMinNS: -1},
	} {
		if err := e.stkB.SetTCPTuning(bad); err == nil {
			t.Errorf("SetTCPTuning(%+v) accepted", bad)
		}
	}
	cfd, afd := e.connectPair(5001)
	if st := e.stkB.Stats(); st.Accepts != 1 {
		t.Fatalf("server accepted %d connections, want 1", st.Accepts)
	}
	c := e.stkB.sockOf(afd).conn
	if c.sndBuf.size != kept || c.rcvBuf.size != kept || c.cc != ccReno || c.offerWS || e.stkB.rtoFloor() != rtoMin {
		t.Fatalf("accepted conn: rings %d/%d, algorithm %d, window scaling %v, RTO floor %d; want the kept tuning's %d/%d, %d (reno), off, %d",
			c.sndBuf.size, c.rcvBuf.size, c.cc, c.offerWS, e.stkB.rtoFloor(), kept, kept, ccReno, int64(rtoMin))
	}
	msg := []byte("across the refused tuning")
	if got := sendAll(e, cfd, afd, msg, 4000); !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
}

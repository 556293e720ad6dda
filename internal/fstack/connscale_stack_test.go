package fstack

import (
	"slices"
	"testing"

	"repro/internal/hostos"
)

// Satellite coverage for the connection-scale subsystem as seen from
// the stack: poll-order determinism, listen-backlog enforcement, the
// SYN cache's graduation / retransmission / overflow behavior,
// TIME_WAIT reuse on both the active and passive side, and ephemeral
// port exhaustion.

// establish opens one client connection from A to B:port with an
// optional fixed source port (0 = ephemeral), returning the client
// and accepted fds.
func establish(e *testEnv, lfd int, port, sport uint16) (int, int) {
	e.t.Helper()
	cfd, errno := e.stkA.Socket(SockStream)
	if errno != hostos.OK {
		e.t.Fatal(errno)
	}
	if sport != 0 {
		if errno := e.stkA.Bind(cfd, IPv4Addr{}, sport); errno != hostos.OK {
			e.t.Fatal(errno)
		}
	}
	if errno := e.stkA.Connect(cfd, IP4(10, 0, 0, 2), port); errno != hostos.EINPROGRESS {
		e.t.Fatalf("connect: %v", errno)
	}
	afd := -1
	e.pumpUntil(8000, "accept", func() bool {
		fd, _, _, errno := e.stkB.Accept(lfd)
		if errno == hostos.OK {
			afd = fd
			return true
		}
		return false
	})
	e.pumpUntil(8000, "client established", func() bool {
		return e.stkA.ConnState(cfd) == "ESTABLISHED"
	})
	return cfd, afd
}

// fullClose closes first the client then the server side and waits
// for the client's conn to reach TIME_WAIT (active close) and the
// server's table to drain.
func fullClose(e *testEnv, cfd, afd int) {
	e.t.Helper()
	e.stkA.Close(cfd)
	e.pumpUntil(8000, "server sees FIN", func() bool {
		return e.stkB.ConnState(afd) == "CLOSE_WAIT"
	})
	e.stkB.Close(afd)
	e.pumpUntil(8000, "client reaches TIME_WAIT", func() bool {
		tw := false
		for c := range e.stkA.conns.all() {
			tw = tw || c.state == tcpTimeWait
		}
		return tw
	})
}

// warmARP resolves the A<->B MAC addresses with a throwaway
// connection, then strips both tables clean — so tests that freeze
// one stack mid-handshake are not stalled on ARP instead.
func warmARP(e *testEnv) {
	e.t.Helper()
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 6999)
	e.stkB.Listen(lfd, 4)
	cfd, afd := establish(e, lfd, 6999, 0)
	for _, pr := range []struct {
		s  *Stack
		fd int
	}{{e.stkA, cfd}, {e.stkB, afd}, {e.stkB, lfd}} {
		for _, c := range slices.Collect(pr.s.conns.all()) {
			pr.s.removeConn(c)
		}
		pr.s.fds.del(pr.fd)
	}
}

// TestPollVisitOrderIsCreationOrder pins the determinism contract of
// the visit-list poll: connections queued in any order are visited in
// creation order. The probe is the wire — three receivers
// with closed windows drain their buffers in reverse creation order,
// all three then owe a window-update ACK at A's next poll, and the
// ACKs must leave in creation order (remote ports 6001, 6002, 6003),
// not drain order.
func TestPollVisitOrderIsCreationOrder(t *testing.T) {
	e := newEnv(t, false)
	e.stkA.SetTCPTuning(TCPTuning{RcvBufBytes: 16384})
	type pair struct {
		cfd, afd int
		port     uint16
	}
	var ps []pair
	for _, port := range []uint16{6001, 6002, 6003} {
		cfd, afd := e.connectPair(port)
		ps = append(ps, pair{cfd, afd, port})
	}
	// Overfill each A-side receive buffer so its advertised window
	// closes; a full drain then owes a window update.
	payload := make([]byte, 32<<10)
	for _, p := range ps {
		if n, errno := e.stkB.Write(p.afd, payload); errno != hostos.OK || n != len(payload) {
			t.Fatalf("fill write: n=%d errno=%v", n, errno)
		}
	}
	for i := 0; i < 4000; i++ {
		e.tick()
	}
	// Drain in reverse creation order; the window updates go out on the
	// next poll, in creation order.
	buf := make([]byte, 64<<10)
	for i := len(ps) - 1; i >= 0; i-- {
		for {
			n, errno := e.stkA.Read(ps[i].cfd, buf)
			if errno != hostos.OK || n == 0 {
				break
			}
		}
	}
	var sent [][]byte
	e.portB.SetRxTap(func(_ int64, frame []byte) { sent = append(sent, slices.Clone(frame)) })
	e.stkA.PollOnce()
	e.portB.SetRxTap(nil)

	var order []uint16
	for _, frame := range sent {
		if _, h, _, ok := wireSeg(frame, nil); ok {
			order = append(order, h.DstPort)
		}
	}
	if len(order) < 3 {
		t.Fatalf("expected 3 window updates, captured %d TCP frames: %v", len(order), order)
	}
	for i, want := range []uint16{6001, 6002, 6003} {
		if order[i] != want {
			t.Fatalf("visit order %v: ACKs must leave in creation order 6001,6002,6003", order)
		}
	}
}

// TestListenBacklogSilentDrop is the backlog-enforcement regression:
// with backlog 2 and nobody accepting, at most two handshakes may be
// in flight or pending, and further SYNs are silently dropped and
// counted.
func TestListenBacklogSilentDrop(t *testing.T) {
	e := newEnv(t, false)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	if errno := e.stkB.Listen(lfd, 2); errno != hostos.OK {
		t.Fatal(errno)
	}
	var cfds []int
	for i := 0; i < 6; i++ {
		cfd, _ := e.stkA.Socket(SockStream)
		if errno := e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 7001); errno != hostos.EINPROGRESS {
			t.Fatalf("connect %d: %v", i, errno)
		}
		cfds = append(cfds, cfd)
	}
	for i := 0; i < 4000; i++ {
		e.tick()
	}
	est := 0
	for _, cfd := range cfds {
		if e.stkA.ConnState(cfd) == "ESTABLISHED" {
			est++
		}
	}
	st := e.stkB.Stats()
	if est != 2 {
		t.Fatalf("%d clients established past a backlog of 2", est)
	}
	if st.SynDrops == 0 {
		t.Fatalf("no SYN drops counted; stats %+v", st)
	}
	if got := e.stkB.AcceptQueueDepth(); got != 2 {
		t.Fatalf("accept-queue depth %d, want 2", got)
	}
	// Draining the queue reopens the backlog: the starved clients'
	// retransmitted SYNs eventually land.
	for i := 0; i < 2; i++ {
		if fd, _, _, errno := e.stkB.Accept(lfd); errno != hostos.OK || fd < 0 {
			t.Fatalf("accept %d: %v", i, errno)
		}
	}
	e.pumpUntil(400_000, "starved clients retry in", func() bool {
		n := 0
		for _, cfd := range cfds {
			if e.stkA.ConnState(cfd) == "ESTABLISHED" {
				n++
			}
		}
		return n >= 4
	})
}

// TestSynCacheGraduation pins the half-open lifecycle: after the SYN
// lands the server holds a syncache entry and no connection; only the
// handshake's final ACK graduates the entry into a conn on the accept
// queue.
func TestSynCacheGraduation(t *testing.T) {
	e := newEnv(t, false)
	warmARP(e)
	accepts0 := e.stkB.Stats().Accepts
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	e.stkB.Listen(lfd, 8)
	cfd, _ := e.stkA.Socket(SockStream)
	e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 7001)
	// Freeze mid-handshake: A emits its SYN, B ingests it, but A never
	// sees the SYN|ACK.
	e.stkA.PollOnce()
	e.clk.Advance(5000)
	e.stkB.PollOnce()
	e.clk.Advance(5000)
	e.stkB.PollOnce()
	if got := len(e.stkB.syncache); got != 1 {
		t.Fatalf("half-open %d after SYN, want 1", got)
	}
	if got := e.stkB.ConnCount(); got != 0 {
		t.Fatalf("conns %d before the final ACK, want 0", got)
	}
	if got := e.stkB.AcceptQueueDepth(); got != 0 {
		t.Fatalf("accept queue %d before the final ACK, want 0", got)
	}
	// Resume: the handshake completes and the entry graduates.
	e.pumpUntil(8000, "graduation", func() bool {
		return e.stkB.ConnCount() == 1 && len(e.stkB.syncache) == 0
	})
	if got := e.stkB.AcceptQueueDepth(); got != 1 {
		t.Fatalf("accept queue %d after graduation, want 1", got)
	}
	if st := e.stkB.Stats(); st.Accepts-accepts0 != 1 {
		t.Fatalf("accepts %d, want 1", st.Accepts-accepts0)
	}
}

// TestSynCacheRetransmitAndGiveUp starves a half-open entry of its
// final ACK: the SYN|ACK must be retransmitted with backoff and the
// entry dropped (backlog slot released) after synRetries resends.
func TestSynCacheRetransmitAndGiveUp(t *testing.T) {
	e := newEnv(t, false)
	warmARP(e)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	e.stkB.Listen(lfd, 8)
	cfd, _ := e.stkA.Socket(SockStream)
	e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 7001)
	e.stkA.PollOnce() // the SYN leaves; A is never polled again
	e.clk.Advance(5000)
	e.stkB.PollOnce()
	e.clk.Advance(5000)
	e.stkB.PollOnce()
	if got := len(e.stkB.syncache); got != 1 {
		t.Fatalf("half-open %d, want 1", got)
	}
	tx0 := e.stkB.Stats().TxFrames
	// 100ms, 200, 400, 800, 1000 of backoff ≈ 2.5 s; give it 5 s.
	for i := 0; i < 5000 && len(e.stkB.syncache) > 0; i++ {
		e.stkB.PollOnce()
		e.clk.Advance(1e6)
	}
	if got := len(e.stkB.syncache); got != 0 {
		t.Fatalf("half-open %d after the retry budget, want 0", got)
	}
	resent := e.stkB.Stats().TxFrames - tx0
	if resent != synRetries {
		t.Fatalf("%d SYN|ACK retransmissions, want %d", resent, synRetries)
	}
	if got := e.stkB.ConnCount(); got != 0 {
		t.Fatalf("conns %d, want 0 — the abandoned handshake must not cost a conn", got)
	}
}

// TestSynCacheOverflow bounds the half-open population: with a
// 2-entry cache, a 5-SYN burst leaves 2 half-open and drops 3,
// counted.
func TestSynCacheOverflow(t *testing.T) {
	e := newEnv(t, false)
	warmARP(e)
	e.stkB.SetTCPTuning(TCPTuning{SynCacheSize: 2})
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	e.stkB.Listen(lfd, 64)
	for i := 0; i < 5; i++ {
		cfd, _ := e.stkA.Socket(SockStream)
		e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 7001)
	}
	e.stkA.PollOnce() // all five SYNs leave together
	e.clk.Advance(5000)
	e.stkB.PollOnce()
	e.clk.Advance(5000)
	e.stkB.PollOnce()
	if got := len(e.stkB.syncache); got != 2 {
		t.Fatalf("half-open %d, want the cache cap 2", got)
	}
	if st := e.stkB.Stats(); st.SynDrops != 3 {
		t.Fatalf("SynDrops %d, want 3", st.SynDrops)
	}
}

// TestTimeWaitActiveReuse reconnects the same 4-tuple while the
// client's previous incarnation sits in TIME_WAIT: connect must
// retire the old conn (RFC 1122 reuse) instead of failing, and count
// it.
func TestTimeWaitActiveReuse(t *testing.T) {
	e := newEnv(t, false)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	e.stkB.Listen(lfd, 8)
	for round := 0; round < 3; round++ {
		cfd, afd := establish(e, lfd, 7001, 23456)
		fullClose(e, cfd, afd)
	}
	if st := e.stkA.Stats(); st.TimeWaitReuses != 2 {
		t.Fatalf("client TimeWaitReuses %d, want 2", st.TimeWaitReuses)
	}
}

// TestTimeWaitPassiveReuse puts TIME_WAIT on the server (server
// closes first) and reconnects the same tuple: the fresh SYN's higher
// ISS must retire the old incarnation and start a new handshake.
func TestTimeWaitPassiveReuse(t *testing.T) {
	e := newEnv(t, false)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	e.stkB.Listen(lfd, 8)

	cfd, afd := establish(e, lfd, 7001, 23456)
	e.stkB.Close(afd) // passive side closes first: TIME_WAIT lands on B
	e.pumpUntil(8000, "client sees FIN", func() bool {
		return e.stkA.ConnState(cfd) == "CLOSE_WAIT"
	})
	e.stkA.Close(cfd)
	e.pumpUntil(8000, "server reaches TIME_WAIT and client drains", func() bool {
		tw := false
		for c := range e.stkB.conns.all() {
			tw = tw || c.state == tcpTimeWait
		}
		return tw && e.stkA.ConnCount() == 0
	})

	cfd2, _ := establish(e, lfd, 7001, 23456)
	if st := e.stkB.Stats(); st.TimeWaitReuses != 1 {
		t.Fatalf("server TimeWaitReuses %d, want 1", st.TimeWaitReuses)
	}
	if e.stkA.ConnState(cfd2) != "ESTABLISHED" {
		t.Fatal("reconnect over the TIME_WAIT tuple did not establish")
	}
}

// TestTimeWaitExpiry is the 2MSL clock: an unreused TIME_WAIT conn
// leaves the table after timeWaitDur without being counted as reused.
func TestTimeWaitExpiry(t *testing.T) {
	e := newEnv(t, false)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	e.stkB.Listen(lfd, 8)
	cfd, afd := establish(e, lfd, 7001, 0)
	fullClose(e, cfd, afd)
	// 2MSL is 50 ms; 12000 ticks of 5 µs = 60 ms.
	e.pumpUntil(12000, "expiry", func() bool {
		return e.stkA.ConnCount() == 0
	})
	if st := e.stkA.Stats(); st.TimeWaitReuses != 0 {
		t.Fatalf("TimeWaitReuses %d on plain expiry, want 0", st.TimeWaitReuses)
	}
}

// TestTimeWaitFlood holds many TIME_WAIT conns at once (rapid churn
// over distinct source ports) and confirms they all expire on the
// 2MSL clock without leaking conns, ports or timers.
func TestTimeWaitFlood(t *testing.T) {
	e := newEnv(t, false)
	// Small rings keep 40 concurrent TIME_WAIT conns inside the 8 MiB
	// test segment.
	e.stkA.SetTCPTuning(TCPTuning{SndBufBytes: 16384, RcvBufBytes: 16384})
	e.stkB.SetTCPTuning(TCPTuning{SndBufBytes: 16384, RcvBufBytes: 16384})
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 7001)
	e.stkB.Listen(lfd, 64)
	const flood = 40
	for i := 0; i < flood; i++ {
		cfd, afd := establish(e, lfd, 7001, uint16(20000+i))
		fullClose(e, cfd, afd)
	}
	tw := 0
	for c := range e.stkA.conns.all() {
		if c.state == tcpTimeWait {
			tw++
		}
	}
	if tw < flood/2 {
		t.Fatalf("only %d/%d conns in TIME_WAIT; the flood never accumulated", tw, flood)
	}
	e.pumpUntil(30000, "flood expires", func() bool {
		return e.stkA.ConnCount() == 0 && e.stkB.ConnCount() == 0
	})
	// The wheel must be empty too: nothing left to fire.
	n := e.stkA.wheel.Len()
	if n != 0 {
		t.Fatalf("timer wheel still holds %d entries after all conns expired", n)
	}
}

// TestEphemeralPortExhaustion fills the ephemeral range and expects
// connect to fail with EADDRNOTAVAIL, not spin or panic.
func TestEphemeralPortExhaustion(t *testing.T) {
	e := newEnv(t, false)
	e.stkA.portRefs = make([]uint32, 65536-ephemeralBase)
	for i := range e.stkA.portRefs {
		e.stkA.portRefs[i] = 1
	}
	cfd, _ := e.stkA.Socket(SockStream)
	if errno := e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 7001); errno != hostos.EADDRNOTAVAIL {
		t.Fatalf("connect with no free ephemeral ports: %v, want EADDRNOTAVAIL", errno)
	}
}

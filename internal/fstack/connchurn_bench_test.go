package fstack

import (
	"testing"

	"repro/internal/hostos"
)

// BenchmarkConnChurn measures the full connection lifecycle at steady
// state: connect over a tuple whose previous incarnation sits in
// TIME_WAIT (exercising the reuse path), SYN-cache handshake,
// graduation onto the accept queue, accept, and a both-sides close
// back into the conn/socket arena. The allocs/op figure is what the
// arena exists for: after warm-up, setup + teardown must not allocate.
//
// The body deliberately avoids closures and helpers that build func
// values per cycle — they would count as allocations of the harness,
// not the stack.
func BenchmarkConnChurn(b *testing.B) {
	e := newEnv(b, false)
	e.stkA.SetTCPTuning(TCPTuning{SndBufBytes: 16384, RcvBufBytes: 16384})
	e.stkB.SetTCPTuning(TCPTuning{SndBufBytes: 16384, RcvBufBytes: 16384})
	lfd, errno := e.stkB.Socket(SockStream)
	if errno != hostos.OK {
		b.Fatal(errno)
	}
	e.stkB.Bind(lfd, IPv4Addr{}, 9100)
	e.stkB.Listen(lfd, 8)

	// Arena, descriptor maps, rings and ARP state reach steady state
	// during warm-up; from then on every cycle recycles what the
	// previous one released.
	for i := 0; i < 32; i++ {
		churnCycle(b, e, lfd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churnCycle(b, e, lfd)
	}
}

// churnCycle runs one connect/accept/close/close round over a fixed
// 4-tuple (source port 25000), leaving the client's conn in TIME_WAIT
// for the next cycle to reuse.
func churnCycle(b *testing.B, e *testEnv, lfd int) {
	cfd, errno := e.stkA.Socket(SockStream)
	if errno != hostos.OK {
		b.Fatal(errno)
	}
	if errno := e.stkA.Bind(cfd, IPv4Addr{}, 25000); errno != hostos.OK {
		b.Fatal(errno)
	}
	if errno := e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 9100); errno != hostos.EINPROGRESS {
		b.Fatal(errno)
	}
	afd := -1
	for tick := 0; tick < 8000 && afd < 0; tick++ {
		e.tick()
		if fd, _, _, errno := e.stkB.Accept(lfd); errno == hostos.OK {
			afd = fd
		}
	}
	if afd < 0 {
		b.Fatal("handshake never completed")
	}
	for tick := 0; e.stkA.ConnState(cfd) != "ESTABLISHED"; tick++ {
		if tick >= 8000 {
			b.Fatal("client never established")
		}
		e.tick()
	}
	e.stkA.Close(cfd)
	for tick := 0; e.stkB.ConnState(afd) != "CLOSE_WAIT"; tick++ {
		if tick >= 8000 {
			b.Fatal("server never saw the FIN")
		}
		e.tick()
	}
	e.stkB.Close(afd)
	// Steady state: the server side fully recycled, the client's conn
	// alone in TIME_WAIT.
	for tick := 0; e.stkB.ConnCount() != 0 || e.stkA.ConnCount() != 1; tick++ {
		if tick >= 8000 {
			b.Fatal("teardown never drained")
		}
		e.tick()
	}
}

// sparseEpoll registers n bound datagram sockets for EPOLLIN on one
// instance and settles the ready list, so all n are registered and
// quiet; it returns the instance, the descriptors and the socket a
// benchmark wakes.
func sparseEpoll(tb testing.TB, s *Stack, n int) (epfd int, fds []int, hot *udpSock) {
	epfd = s.EpollCreate()
	for i := 0; i < n; i++ {
		fd, errno := s.Socket(SockDgram)
		if errno != hostos.OK {
			tb.Fatal(errno)
		}
		if errno := s.Bind(fd, IPv4Addr{}, uint16(10000+i)); errno != hostos.OK {
			tb.Fatal(errno)
		}
		if errno := s.EpollCtl(epfd, EpollCtlAdd, fd, EPOLLIN); errno != hostos.OK {
			tb.Fatal(errno)
		}
		fds = append(fds, fd)
	}
	var evs [8]Event
	if k, errno := s.EpollWait(epfd, evs[:]); errno != hostos.OK || k != 0 {
		tb.Fatalf("quiet sockets reported: n=%d errno=%v", k, errno)
	}
	return epfd, fds, s.sockOf(fds[n/2]).udp
}

// BenchmarkEpollWaitSparse is the case the pushed ready list exists
// for: 4096 registered descriptors, one of them ready. Each iteration
// queues a datagram (the wake), waits, drains it, and waits again (the
// call that drops the no-longer-ready entry) — a cost that must not
// depend on the 4095 quiet registrations.
func BenchmarkEpollWaitSparse(b *testing.B) {
	e := newEnv(b, false)
	s := e.stkB
	epfd, fds, hot := sparseEpoll(b, s, 4096)
	var evs [8]Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot.pushDgram(dgram{})
		if k, _ := s.EpollWait(epfd, evs[:]); k != 1 || evs[0].FD != fds[len(fds)/2] {
			b.Fatalf("woken socket not reported: n=%d %v", k, evs[0])
		}
		hot.popDgram()
		if k, _ := s.EpollWait(epfd, evs[:]); k != 0 {
			b.Fatalf("drained socket still reported: n=%d", k)
		}
	}
}

package fstack

import (
	"testing"
	"unsafe"

	"repro/internal/hostos"
)

// TestConnPlaneStructSizes pins the two structs Stack.RetainedBytes
// multiplies by the connection count: Scenario 8's bytes-per-idle-
// connection column (scenario8.golden) moves with either. The epoll
// registration chain must fit in the slack, not grow them.
func TestConnPlaneStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(socket{}); got != 48 {
		t.Errorf("sizeof(socket) = %d, want 48", got)
	}
	if got := unsafe.Sizeof(tcpConn{}); got != 368 {
		t.Errorf("sizeof(tcpConn) = %d, want 368", got)
	}
}

// TestEpollSteadyStateZeroAllocs: registrations come from the stack's
// pool, so an ADD/DEL cycle — churn_25k runs one per short flow — a MOD,
// and a warm EpollWait that reports, re-queues and drops entries all
// allocate nothing.
func TestEpollSteadyStateZeroAllocs(t *testing.T) {
	e := newEnv(t, false)
	s := e.stkB
	epfd, fds, hot := sparseEpoll(t, s, 64)
	var evs [8]Event
	allocs := testing.AllocsPerRun(200, func() {
		fd := fds[0]
		if errno := s.EpollCtl(epfd, EpollCtlDel, fd, 0); errno != hostos.OK {
			t.Fatal(errno)
		}
		if errno := s.EpollCtl(epfd, EpollCtlAdd, fd, EPOLLIN); errno != hostos.OK {
			t.Fatal(errno)
		}
		if errno := s.EpollCtl(epfd, EpollCtlMod, fd, EPOLLIN|EPOLLOUT); errno != hostos.OK {
			t.Fatal(errno)
		}
		hot.pushDgram(dgram{})
		if k, _ := s.EpollWait(epfd, evs[:]); k != 2 {
			t.Fatalf("EpollWait = %d events, want the writable and the readable socket", k)
		}
		hot.popDgram()
		s.EpollCtl(epfd, EpollCtlMod, fd, EPOLLIN)
		if k, _ := s.EpollWait(epfd, evs[:]); k != 0 {
			t.Fatalf("EpollWait = %d events after drain, want 0", k)
		}
	})
	if allocs != 0 {
		t.Fatalf("epoll steady state allocates %.1f allocs/cycle, want 0", allocs)
	}
}

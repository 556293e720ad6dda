package fstack

import (
	"testing"
	"unsafe"

	"repro/internal/hostos"
)

// TestConnPlaneStructSizes pins the structs Stack.RetainedBytes
// multiplies by the connection count: Scenario 8's bytes-per-idle-
// connection column (scenario8.golden) moves with tcpConn (its two ring
// headers inside) or socket. The epoll registration chain must fit in
// the slack, not grow them, the number a registration carries must fit
// in its padding, and the cold record an idle connection does not hold
// (CUBIC's 32 B epoch inside it) stays within 104 bytes: the zero-window
// probe rides the connection's one deadline, not a field of its own. A view's entry
// (shardedFD), one per connection end a view names and held in its table
// page, is 24 B: a spread number's copies and instances sit behind one
// pointer. A 32-bit window took tcpConn from 208 to 200 B, and the one
// 32-bit retransmission timer (rexmt) to 192 B; the same timer holds a
// half-open synEntry at 56 B.
func TestConnPlaneStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	for _, s := range []struct {
		name      string
		got, want uintptr
	}{
		{"socket", unsafe.Sizeof(socket{}), 40},
		{"epollReg", unsafe.Sizeof(epollReg{}), 48},
		{"tcpConn", unsafe.Sizeof(tcpConn{}), 192},
		{"synEntry", unsafe.Sizeof(synEntry{}), 56},
		{"sockBuf", unsafe.Sizeof(sockBuf{}), 24},
		{"tcpCold", unsafe.Sizeof(tcpCold{}), 104},
		{"shardedFD", unsafe.Sizeof(shardedFD{}), 24},
	} {
		if s.got != s.want {
			t.Errorf("sizeof(%s) = %d, want %d", s.name, s.got, s.want)
		}
	}
}

// TestEpollSteadyStateZeroAllocs: registrations come from the stack's
// arena, so an ADD/DEL cycle — churn_25k runs one per short flow — a MOD,
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

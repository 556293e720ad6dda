package churn

import (
	"math"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
)

// scriptAPI scripts the socket surface the server sees: queued accepts
// per listener, queued read results per connection (0 = EOF), queued
// epoll ready sets. Every other stream call succeeds; the datagram
// calls, which the server never makes, are the embedded nil's.
type scriptAPI struct {
	fstack.API
	nextFD  int
	accepts map[int][]int
	reads   map[int][]int
	events  [][]fstack.Event
	closed  int
}

func (a *scriptAPI) Socket(int) (int, hostos.Errno) {
	a.nextFD++
	return a.nextFD, hostos.OK
}
func (a *scriptAPI) Bind(int, fstack.IPv4Addr, uint16) hostos.Errno    { return hostos.OK }
func (a *scriptAPI) Listen(int, int) hostos.Errno                      { return hostos.OK }
func (a *scriptAPI) Connect(int, fstack.IPv4Addr, uint16) hostos.Errno { return hostos.EINPROGRESS }
func (a *scriptAPI) Accept(fd int) (int, fstack.IPv4Addr, uint16, hostos.Errno) {
	q := a.accepts[fd]
	if len(q) == 0 {
		return -1, fstack.IPv4Addr{}, 0, hostos.EAGAIN
	}
	a.accepts[fd] = q[1:]
	return q[0], fstack.IPv4Addr{}, 0, hostos.OK
}
func (a *scriptAPI) Read(fd int, dst []byte) (int, hostos.Errno) {
	q := a.reads[fd]
	if len(q) == 0 {
		return 0, hostos.EAGAIN
	}
	a.reads[fd] = q[1:]
	return q[0], hostos.OK
}
func (a *scriptAPI) Write(fd int, src []byte) (int, hostos.Errno) { return len(src), hostos.OK }
func (a *scriptAPI) Close(int) hostos.Errno                       { a.closed++; return hostos.OK }
func (a *scriptAPI) EpollCreate() int                             { return 1 }
func (a *scriptAPI) EpollCtl(int, int, int, uint32) hostos.Errno  { return hostos.OK }
func (a *scriptAPI) EpollWait(_ int, evs []fstack.Event) (int, hostos.Errno) {
	if len(a.events) == 0 {
		return 0, hostos.OK
	}
	n := copy(evs, a.events[0])
	a.events = a.events[1:]
	return n, hostos.OK
}

// TestServerAnnouncesQueuedWork pins the server's deadline hook to the
// two kinds of work one Step leaves for the next, which no stack event
// announces: a short flow accepted after this Step's EpollWait (its
// bytes and FIN may have arrived in the same poll), and ready
// descriptors a full event buffer could not report. A parked connection
// is never read, so accepting one queues nothing.
func TestServerAnnouncesQueuedWork(t *testing.T) {
	api := &scriptAPI{accepts: map[int][]int{}, reads: map[int][]int{}}
	srv := NewServer(fstack.IPv4Addr{}, 5801, 5901, 1, 16)
	srv.evs = srv.evs[:2]
	in := func(fds ...int) []fstack.Event {
		var evs []fstack.Event
		for _, fd := range fds {
			evs = append(evs, fstack.Event{FD: fd, Events: fstack.EPOLLIN})
		}
		return evs
	}
	step := func(when string, now int64, wantDue bool) {
		t.Helper()
		srv.Step(api, now)
		want := int64(math.MaxInt64)
		if wantDue {
			want = now
		}
		if d := srv.NextDeadline(now); d != want || srv.Err() != hostos.OK {
			t.Fatalf("%s: deadline %d (err %v), want %d", when, d, srv.Err(), want)
		}
	}
	step("setup", 0, false)
	const parkFD, churnFD = 1, 2 // the two listeners, in creation order

	api.accepts[parkFD] = []int{50}
	api.events = [][]fstack.Event{in(parkFD)}
	step("parked a connection", 1, false)

	api.accepts[churnFD] = []int{100, 101, 102}
	api.events = [][]fstack.Event{in(churnFD)}
	step("accepted three short flows", 2, true)
	step("empty wait", 3, false)

	// Three finished flows against the two-entry buffer: the first wait
	// is full, the second reports the rest.
	for fd := 100; fd <= 102; fd++ {
		api.reads[fd] = []int{payloadBytes, 0}
	}
	api.events = [][]fstack.Event{in(100, 101), in(102)}
	step("full wait", 4, true)
	step("the rest reported", 5, false)
	if srv.Parked() != 1 || srv.Served() != 3 || api.closed != 3 {
		t.Fatalf("parked %d, served %d, closed %d; want 1, 3, 3", srv.Parked(), srv.Served(), api.closed)
	}
}

package app

import (
	"math"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
)

// TestChurnServerAnnouncesQueuedWork pins the server's deadline hook to the
// two kinds of work one Step leaves for the next, which no stack event
// announces: a short flow accepted after this Step's EpollWait (its
// bytes and FIN may have arrived in the same poll), and ready
// descriptors a full event buffer could not report. A parked connection
// is never read, so accepting one queues nothing.
func TestChurnServerAnnouncesQueuedWork(t *testing.T) {
	api := newFakeAPI()
	srv := NewChurnServer(fstack.IPv4Addr{}, 5801, 5901, 1, 16)
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
	const parkFD, churnFD = 10, 11 // the two listeners, in creation order

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
		api.reads[fd] = [][]byte{make([]byte, payloadBytes), {}}
	}
	api.events = [][]fstack.Event{in(100, 101), in(102)}
	step("full wait", 4, true)
	step("the rest reported", 5, false)
	if srv.parked != 1 || srv.Served() != 3 || len(api.closed) != 3 {
		t.Fatalf("parked %d, served %d, closed %d; want 1, 3, 3", srv.parked, srv.Served(), len(api.closed))
	}
}

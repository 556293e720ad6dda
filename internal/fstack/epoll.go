package fstack

import "repro/internal/hostos"

// Epoll event bits (Linux values; musl callers expect them).
const (
	EPOLLIN  uint32 = 0x001
	EPOLLOUT uint32 = 0x004
	EPOLLERR uint32 = 0x008
	EPOLLHUP uint32 = 0x010
)

// Epoll ctl operations.
const (
	EpollCtlAdd = 1
	EpollCtlDel = 2
	EpollCtlMod = 3
)

// Event is one readiness report.
type Event struct {
	FD     int
	Events uint32
}

// epollInstance is a level-triggered readiness poller over the stack's
// sockets. The paper's iperf3 port replaced select with this mechanism
// (§III-B); in a poll-mode stack Wait never blocks — the main loop is
// the thing that makes progress.
//
// Readiness is pushed, not polled. The instance holds no interest table
// to scan: a registration hangs off its socket, and every site that can
// raise a bit of socket.readiness calls socket.wake, which queues the
// socket's registrations on their instances' ready lists. EpollWait
// walks that list only, so a descriptor that is registered but quiet
// costs nothing. Lowering a bit needs no call: Wait re-evaluates the
// predicate and drops what is no longer ready.
type epollInstance struct {
	// ready is the sentinel of the circular ready list, oldest wake
	// first.
	ready epollReg
	// set is the epoll number's instances, one per shard of its view,
	// this one among them: a socket copied or moved onto shard i
	// registers with set[i].
	set []epollInstance
}

// newEpollSet makes one epoll number's instances, one per shard.
func newEpollSet(n int) []epollInstance {
	set := make([]epollInstance, n)
	for i := range set {
		ep := &set[i]
		ep.ready.prev, ep.ready.next = &ep.ready, &ep.ready
		ep.set = set
	}
	return set
}

// epollReg is one socket's registration with one instance. Taken from
// the stack's arena (regArena) and chained intrusively, so registering
// allocates nothing at steady state and the socket struct carries one
// pointer.
type epollReg struct {
	ep   *epollInstance // nil while the registration is free
	sk   *socket
	want uint32
	// data is the number the registration was made under, which
	// EpollWait reports as is (F-Stack's epoll_event.data).
	data int32

	// nextSk chains the registrations of one socket, one per instance
	// watching it.
	nextSk *epollReg
	// prev/next link the registration into ep's ready list; nil while
	// it is not queued.
	prev, next *epollReg
}

// regSlabLen is how many registrations one arena refill allocates: a run
// that parks tens of thousands of registered connections pays one
// allocation per slab, not one per connection.
const regSlabLen = 128

// queue appends r to its instance's ready list unless it is already on
// it.
func (r *epollReg) queue() {
	if r.next != nil {
		return
	}
	head := &r.ep.ready
	r.prev, r.next = head.prev, head
	head.prev.next = r
	head.prev = r
}

// unqueue takes r off its instance's ready list, if it is on it.
func (r *epollReg) unqueue() {
	if r.next == nil {
		return
	}
	r.prev.next, r.next.prev = r.next, r.prev
	r.prev, r.next = nil, nil
}

// wake queues every registration of sk for its instance's next Wait.
// The contract that replaces the interest scan: every assignment that
// can raise a bit of sk.readiness() is followed by a wake before the API
// call or poll that made it returns (DESIGN.md §10 lists the sites).
func (sk *socket) wake() {
	for r := sk.regs; r != nil; r = r.nextSk {
		r.queue()
	}
}

// wake queues the registrations of the connection's socket, if the
// application holds one (not before Accept, not after Close).
func (c *tcpConn) wake() {
	if c.sk != nil {
		c.sk.wake()
	}
}

// register chains a new registration of sk with ep under number data.
func (s *Stack) register(ep *epollInstance, sk *socket, data int32, want uint32) *epollReg {
	r := s.regArena.take()
	*r = epollReg{ep: ep, sk: sk, want: want, data: data, nextSk: sk.regs}
	sk.regs = r
	return r
}

// unregister drops sk's registration with ep — with every instance when
// ep is nil — and gives the structs back to the arena.
func (s *Stack) unregister(sk *socket, ep *epollInstance) {
	for link := &sk.regs; *link != nil; {
		r := *link
		if ep != nil && r.ep != ep {
			link = &r.nextSk
			continue
		}
		*link = r.nextSk
		r.unqueue()
		*r = epollReg{}
		s.regArena.put(r)
	}
}

// dropRegs drops every registration with ep, or with any instance when
// ep is nil: an instance's close, a crash. The one operation here that
// walks the registration arena (a live registration has its ep set): an
// application makes an instance per lifetime, not per connection.
func (s *Stack) dropRegs(ep *epollInstance) {
	s.regArena.each(func(r *epollReg) {
		if r.ep != nil && (ep == nil || r.ep == ep) {
			s.unregister(r.sk, r.ep)
		}
	})
}

// epollCtl changes sk's registration with ep; an added one carries the
// number data.
func (s *Stack) epollCtl(ep *epollInstance, op int, sk *socket, data int32, events uint32) hostos.Errno {
	r := sk.regs
	for r != nil && r.ep != ep {
		r = r.nextSk
	}
	switch op {
	case EpollCtlAdd:
		if r != nil {
			return hostos.EINVAL
		}
		// Whatever the socket already holds (data that arrived before
		// Accept, a completed connect) is reported by the next Wait.
		s.register(ep, sk, data, events).queue()
	case EpollCtlMod:
		if r == nil {
			return hostos.ENOENT
		}
		r.want = events
		r.queue() // the new mask may select a bit that is already up
	case EpollCtlDel:
		s.unregister(sk, ep)
	default:
		return hostos.EINVAL
	}
	return hostos.OK
}

// epollWait collects ep's ready events (non-blocking), oldest wake
// first. It visits only the registrations woken since they last reported
// nothing: each is re-evaluated, reported and re-queued behind the
// others if still ready (level-triggered), dropped from the list if not.
// When more are ready than evs holds, the rest stay queued in order for
// the next call — and lead it, since the reported ones went to the back.
func (s *Stack) epollWait(ep *epollInstance, evs []Event) int {
	n := 0
	last := ep.ready.prev // one pass: what follows it is re-queued by this call
	for n < len(evs) && ep.ready.next != &ep.ready {
		r := ep.ready.next
		r.unqueue()
		if got := r.sk.readiness() & (r.want | EPOLLERR | EPOLLHUP); got != 0 {
			evs[n] = Event{FD: int(r.data), Events: got}
			n++
			r.queue()
		}
		if r == last {
			break
		}
	}
	return n
}

// readiness computes the level-triggered event set of a socket.
func (sk *socket) readiness() uint32 {
	var r uint32
	switch {
	case sk.lst != nil:
		if sk.lst.err != hostos.OK {
			r |= EPOLLERR
		}
		if sk.lst.pendingCount() > 0 {
			r |= EPOLLIN
		}
	case sk.conn != nil:
		c := sk.conn
		if c.rcvBuf.Len() > 0 || c.is(peerFin) {
			r |= EPOLLIN
		}
		if c.is(writable) && c.sndBuf.Free() > 0 {
			r |= EPOLLOUT
		}
		if c.state == tcpClosed {
			r |= EPOLLHUP
		}
		if c.err() != hostos.OK {
			r |= EPOLLERR
		}
	case sk.udp != nil:
		if sk.udp.err != hostos.OK {
			r |= EPOLLERR
		}
		if sk.udp.queued() > 0 {
			r |= EPOLLIN
		}
		r |= EPOLLOUT // UDP is always writable (best effort)
	}
	return r
}

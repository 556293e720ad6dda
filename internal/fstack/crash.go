package fstack

import (
	"cmp"
	"slices"

	"repro/internal/hostos"
)

// Crash models the stack compartment dying mid-run (a capability fault
// trapped its cVM): every in-flight connection is aborted with
// ECONNRESET, listeners and bound UDP endpoints latch ENETDOWN, epoll
// interest sets are dropped, the SYN cache and ARP state vanish, and
// the stack goes down — PollOnce is a no-op and NextDeadline reports
// quiescence until Restart. Nothing is transmitted: a crashed stack is
// silent; peers discover the death when the restarted stack answers
// their retransmits with RSTs.
//
// File descriptors stay valid so the application sees the failure the
// way a real one would: blocked Accept/Read/RecvFrom return the
// latched errno instead of EAGAIN, and the app closes the stale fds
// itself (which is what returns RetainedBytes to its pre-fault level).
func (s *Stack) Crash() {
	if s.down {
		return
	}
	s.down = true

	// Abort every live connection in creation order, so the trace
	// events this emits, and the order rings go back to the segment,
	// are identical run to run (slot order depends on the tuples).
	order := slices.SortedFunc(s.conns.all(), func(a, b *tcpConn) int {
		return cmp.Compare(a.seq, b.seq)
	})
	for _, c := range order {
		c.abort(hostos.ECONNRESET)
	}

	// Listeners: the accept queues' conns were aborted above; release
	// their queue slots, latch the errno and unbind. The listener
	// struct stays reachable through its socket so a pending Accept
	// returns ENETDOWN, not EAGAIN.
	for ep, l := range s.listeners {
		for i := l.head; i < len(l.pending); i++ {
			c := l.pending[i]
			l.pending[i] = nil
			c.inPending = false
			s.maybeRecycleConn(c)
		}
		l.pending = l.pending[:0]
		l.head = 0
		l.halfOpen = 0
		l.err = hostos.ENETDOWN
		delete(s.listeners, ep)
	}

	// UDP endpoints: queued datagrams are lost, the binding latches.
	for ep, u := range s.udps {
		for u.queued() > 0 {
			s.freeDgramBuf(u.popDgram().data)
		}
		u.err = hostos.ENETDOWN
		delete(s.udps, ep)
	}

	// Epoll: registrations are fully dropped — a restarted application
	// re-registers from scratch. The instances (and their fds) remain.
	s.dropRegs(nil)

	// Half-open connections die silently; freeing every entry empties
	// the SYN wheel (order-free: nothing observable is emitted).
	for _, e := range s.syncache {
		s.synForget(e)
	}

	// The visit list: the conns are all CLOSED, so each leaves it for
	// the arena unless a socket or an accept queue still holds it.
	for i, c := range s.visit {
		s.visit[i] = nil
		c.queued = false
		s.maybeRecycleConn(c)
	}
	s.visit = s.visit[:0]

	// Neighbor state is gone with the compartment — ARP is re-learned
	// from scratch after the restart.
	for _, nif := range s.nifs {
		nif.arp.reset()
	}
	s.wantPoll = false
}

// Restart brings a crashed stack back up. Crash already tore the
// connection plane down to empty, so coming back is just clearing the
// down flag: the first poll re-harvests whatever accumulated in the
// device rings during the outage (stale segments draw RSTs, which is
// how peers' dead connections get reset), and the application
// re-creates its sockets and listeners through the normal API.
func (s *Stack) Restart() {
	if !s.down {
		return
	}
	s.down = false
	s.wantPoll = true // harvest the backlog on the next iteration
}

// Down reports whether the stack is crashed (compartment-state gauge).
func (s *Stack) Down() bool {
	return s.down
}

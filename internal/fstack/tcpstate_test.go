package fstack

import (
	"testing"

	"repro/internal/hostos"
)

// The per-state switches and the three close-transition switches as
// they stood before the state table (tcpStates) replaced them, kept as
// its reference. Each is a copy of one switch, as a function of the
// state alone.

// refStateNames is the name map String read.
var refStateNames = map[tcpState]string{
	tcpClosed: "CLOSED", tcpSynSent: "SYN_SENT", tcpSynReceived: "SYN_RCVD",
	tcpEstablished: "ESTABLISHED", tcpFinWait1: "FIN_WAIT_1", tcpFinWait2: "FIN_WAIT_2",
	tcpCloseWait: "CLOSE_WAIT", tcpClosing: "CLOSING", tcpLastAck: "LAST_ACK",
	tcpTimeWait: "TIME_WAIT",
}

// refFinQueued is finQueued's switch.
func refFinQueued(s tcpState) bool {
	switch s {
	case tcpFinWait1, tcpFinWait2, tcpClosing, tcpLastAck, tcpTimeWait:
		return true
	}
	return false
}

// refPeerFin is peerFin's switch.
func refPeerFin(s tcpState) bool {
	switch s {
	case tcpCloseWait, tcpClosing, tcpLastAck, tcpTimeWait:
		return true
	}
	return false
}

// refOutputSends is output's guard.
func refOutputSends(s tcpState) bool {
	switch s {
	case tcpEstablished, tcpCloseWait, tcpFinWait1, tcpClosing, tcpLastAck:
	default:
		return false
	}
	return true
}

// refPersistSends is onPersist's guard, for a connection with a zero
// peer window and bytes queued.
func refPersistSends(s tcpState) bool {
	switch s {
	case tcpEstablished, tcpCloseWait, tcpFinWait1, tcpClosing, tcpLastAck:
	default:
		return false
	}
	return true
}

// refNeedsWindowUpdate is needsWindowUpdate's switch, for a connection
// whose advertised window is shut and whose ring has room.
func refNeedsWindowUpdate(s tcpState) bool {
	switch s {
	case tcpEstablished, tcpFinWait1, tcpFinWait2:
		return true
	}
	return false
}

// refWritableState is writableState's switch, for a connection with no
// sticky error.
func refWritableState(s tcpState) hostos.Errno {
	switch s {
	case tcpEstablished, tcpCloseWait:
		return hostos.OK
	case tcpSynSent:
		return hostos.EAGAIN
	default:
		return hostos.EPIPE
	}
}

// refReadiness is readiness's stream arm, for a connection with send
// room, nothing received and no sticky error.
func refReadiness(s tcpState) uint32 {
	var r uint32
	if refPeerFin(s) {
		r |= EPOLLIN
	}
	switch s {
	case tcpEstablished, tcpCloseWait:
		r |= EPOLLOUT
	case tcpClosed:
		r |= EPOLLHUP
	}
	return r
}

// refClose is close's switch: the state CLOSE leads to, or an abort.
func refClose(s tcpState) (next tcpState, abort bool) {
	switch s {
	case tcpEstablished, tcpCloseWait:
		if s == tcpEstablished {
			return tcpFinWait1, false
		}
		return tcpLastAck, false
	case tcpSynSent:
		return s, true
	}
	return s, false
}

// refOnPeerFin is FIN receipt's switch (entering TIME_WAIT was
// enterTimeWait).
func refOnPeerFin(s tcpState, finAcked bool) tcpState {
	switch s {
	case tcpEstablished:
		return tcpCloseWait
	case tcpFinWait1:
		if finAcked {
			return tcpTimeWait
		}
		return tcpClosing
	case tcpFinWait2:
		return tcpTimeWait
	}
	return s
}

// refOnFinAcked is handleAck's switch on our FIN acked (entering CLOSED
// was removeConn).
func refOnFinAcked(s tcpState) tcpState {
	switch s {
	case tcpFinWait1:
		return tcpFinWait2
	case tcpClosing:
		return tcpTimeWait
	case tcpLastAck:
		return tcpClosed
	}
	return s
}

// TestStateTableMatchesSwitches compares the state table with the
// switches it replaced, for every state and every close event: each
// fact through the function that reads it on a connection in that
// state, each edge against its switch.
func TestStateTableMatchesSwitches(t *testing.T) {
	if len(tcpStates) != len(refStateNames) {
		t.Fatalf("the table has %d states, the reference %d", len(tcpStates), len(refStateNames))
	}
	for i := range tcpStates {
		s := tcpState(i)
		c := &tcpConn{
			state:     s,
			sndBuf:    sockBuf{size: 4096, w: 1}, // one byte queued, the peer's window shut
			rcvBuf:    sockBuf{size: 64 << 10},
			handshake: handshake{sndMSS: MaxSegData},
		}
		for _, f := range []struct {
			what     string
			got, ref any
		}{
			{"name", s.String(), refStateNames[s]},
			{"finQueued", c.is(finQueued), refFinQueued(s)},
			{"peerFin", c.is(peerFin), refPeerFin(s)},
			{"output sends", c.is(sends), refOutputSends(s)},
			{"persisting", c.persisting(), refPersistSends(s)},
			{"needsWindowUpdate", c.needsWindowUpdate(), refNeedsWindowUpdate(s)},
			{"writableState", writableState(c), refWritableState(s)},
			{"readiness", (&socket{conn: c}).readiness(), refReadiness(s)},
		} {
			if f.got != f.ref {
				t.Errorf("%v: %s is %v, the switch said %v", s, f.what, f.got, f.ref)
			}
		}

		next := tcpStates[s].next
		refNext, abort := refClose(s)
		if next[evClose] != refNext {
			t.Errorf("%v: CLOSE leads to %v, the switch to %v", s, next[evClose], refNext)
		}
		// close takes the table's edge exactly where the state is
		// writable, and aborts only SYN_SENT (an abort is no table edge).
		if moves := next[evClose] != s; moves != c.is(writable) {
			t.Errorf("%v: CLOSE moves %v but writable is %v", s, moves, c.is(writable))
		}
		if abort != (s == tcpSynSent) {
			t.Errorf("%v: close aborts %v", s, abort)
		}
		// FIN receipt's FIN_WAIT_1 branch with our FIN acked is not
		// compared: handleAck runs first on every segment carrying an
		// ACK and leaves FIN_WAIT_1 as soon as our FIN is acked, so the
		// peer's FIN never finds FIN_WAIT_1 with it acked.
		if got, ref := next[evPeerFin], refOnPeerFin(s, false); got != ref {
			t.Errorf("%v: the peer's FIN leads to %v, the switch to %v", s, got, ref)
		}
		if got, ref := next[evFinAcked], refOnFinAcked(s); got != ref {
			t.Errorf("%v: our FIN acked leads to %v, the switch to %v", s, got, ref)
		}
	}
}

package fstack

import "testing"

// TestQueuesStayOQueued holds the accept queue and the datagram queue to
// O(queued) capacity when they never drain: 100 000 push/pop pairs with
// one entry always waiting must neither grow the backing slice by a slot
// per entry nor reorder what they hold. They once reset only when empty,
// so that left 100 001 slots in each.
func TestQueuesStayOQueued(t *testing.T) {
	const pairs, maxCap = 100_000, 16

	l := &listener{sk: &socket{}}
	conns := make([]tcpConn, 2)
	l.pushPending(&conns[0])
	for i := 0; i < pairs; i++ {
		l.pushPending(&conns[(i+1)%2])
		if c := l.popPending(); c != &conns[i%2] {
			t.Fatalf("pair %d: accept queue popped out of order", i)
		}
		if l.pendingCount() != 1 {
			t.Fatalf("pair %d: accept queue holds %d, want 1", i, l.pendingCount())
		}
	}
	if cap(l.pending) > maxCap {
		t.Errorf("accept queue: %d slots after %d pairs with one queued, want <= %d", cap(l.pending), pairs, maxCap)
	}

	u := &udpSock{sk: &socket{}}
	u.pushDgram(dgram{src: tcpEndpoint{Port: 0}})
	for i := 0; i < pairs; i++ {
		u.pushDgram(dgram{src: tcpEndpoint{Port: uint16(i + 1)}})
		if d := u.popDgram(); d.src.Port != uint16(i) {
			t.Fatalf("pair %d: datagram queue popped port %d, want %d", i, d.src.Port, uint16(i))
		}
		if u.queued() != 1 {
			t.Fatalf("pair %d: datagram queue holds %d, want 1", i, u.queued())
		}
	}
	if cap(u.q) > maxCap {
		t.Errorf("datagram queue: %d slots after %d pairs with one queued, want <= %d", cap(u.q), pairs, maxCap)
	}
}

//go:build !race

package app

import (
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
)

// dnsEcho answers every query the client sends on the client's next
// RecvFrom, without allocating: the one datagram in flight is reused.
type dnsEcho struct {
	*fakeAPI
	srv     fstack.IPv4Addr
	answer  []byte
	pending bool
}

func (e *dnsEcho) SendTo(_ int, data []byte, _ fstack.IPv4Addr, _ uint16) (int, hostos.Errno) {
	id, _ := dnsID(data)
	e.answer = e.answer[:putDNSAnswer(e.answer[:cap(e.answer)], id)]
	e.pending = true
	return len(data), hostos.OK
}

func (e *dnsEcho) RecvFrom(_ int, dst []byte) (int, fstack.IPv4Addr, uint16, hostos.Errno) {
	if !e.pending {
		return 0, fstack.IPv4Addr{}, 0, hostos.EAGAIN
	}
	e.pending = false
	return copy(dst, e.answer), e.srv, 53, hostos.OK
}

// TestDNSClientCycleZeroAllocs pins the flight table: at steady state a
// query → answer cycle of the closed-loop client allocates nothing. One
// flight allocated per query was 94 % of rpc_dns's allocations.
// (AllocsPerRun rounds down, so a queue that grows by doubling passes
// here; TestDNSClientTimeoutQueueStaysBounded pins the queue.)
//
// Skipped under the race detector, whose instrumentation allocates.
func TestDNSClientCycleZeroAllocs(t *testing.T) {
	srv := fstack.IP4(10, 0, 0, 2)
	api := &dnsEcho{fakeAPI: newFakeAPI(), srv: srv, answer: make([]byte, dnsAnswerLen)}
	c, err := NewDNSClient(srv, 53, 4000, 0, 1, 1e12, 50_000, 2) // closed-loop, one query
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	cycle := func() {
		c.Step(api, now) // the answer to the last query, then the next query
		now += 1000
	}
	for i := 0; i < 1000; i++ { // the timeout queue reaches its working length
		cycle()
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Fatalf("a DNS query → answer cycle costs %v allocations, want 0", a)
	}
	if c.Completed() < 1000 || c.Completed()+1 != c.Issued() || c.Timeouts() != 0 || c.Err() != hostos.OK {
		t.Fatalf("completed %d of %d issued, timeouts %d, err %v: every query but the last must be answered",
			c.Completed(), c.Issued(), c.Timeouts(), c.Err())
	}
}

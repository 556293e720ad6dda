package fstack

import (
	"testing"

	"repro/internal/hostos"
)

// BenchmarkDatapathFrame measures the per-frame cost of the full
// simulated datapath: one MSS of payload written on stack A travels
// A's socket buffer → TCP output → mbuf → TX descriptor ring → NIC
// serializer → wire → B's RX FIFO → RX descriptor DMA → B's TCP input
// → receive buffer, and the ACK makes the same trip back. The
// allocs/op figure is the one the frame arena exists for: the steady
// state must not allocate per frame.
func BenchmarkDatapathFrame(b *testing.B) {
	e := newEnv(b, false)
	cfd, afd := e.connectPair(9000)

	payload := make([]byte, MaxSegData)
	for i := range payload {
		payload[i] = byte(i)
	}
	sink := make([]byte, MaxSegData)

	// One warm-up round trip so ring/FIFO slices and ARP state reach
	// steady state before counting.
	roundTrip := func() {
		if n, errno := e.stkA.Write(cfd, payload); errno != hostos.OK || n != len(payload) {
			b.Fatalf("write: n=%d errno=%v", n, errno)
		}
		got := 0
		for tick := 0; tick < 4000; tick++ {
			e.stkA.PollOnce()
			e.stkB.PollOnce()
			if n, errno := e.stkB.Read(afd, sink); errno == hostos.OK {
				got += n
			}
			// Done when B has the payload and A's ACK came back (send
			// buffer drained), so the next iteration starts clean.
			if got == len(payload) && e.stkA.ConnState(cfd) == "ESTABLISHED" && e.sndBufLen(cfd) == 0 {
				return
			}
			e.clk.Advance(5000)
		}
		b.Fatalf("round trip stalled: got %d of %d bytes", got, len(payload))
	}
	roundTrip()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// sndBufLen peeks a connection's send-buffer occupancy (bench hook).
func (e *testEnv) sndBufLen(fd int) int {
	sk := e.stkA.sockOf(fd)
	if sk == nil || sk.conn == nil {
		return -1
	}
	return sk.conn.sndBuf.Len()
}

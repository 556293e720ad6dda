//go:build !race

package fstack

import "testing"

// TestDatapathFrameZeroAllocs pins the observability hard constraint:
// with every obs hook left nil (the zero ObsSpec), the steady-state
// datapath must not allocate per frame. A regression here means a hook
// heap-allocates on the hot path even when disabled.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestDatapathFrameZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	res := testing.Benchmark(BenchmarkDatapathFrame)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("datapath allocates %d allocs/op with observability disabled, want 0", a)
	}
}

// TestSACKAckZeroAllocs pins both halves of a SACK-bearing ACK at zero
// allocations: building the option from a reassembly queue with more
// runs than fit, and parsing it back on the stack's input path.
func TestSACKAckZeroAllocs(t *testing.T) {
	s := &Stack{}
	c := &tcpConn{stk: s}
	for i := uint32(0); i < 6; i++ {
		c.rcvOOO = append(c.rcvOOO, oooSeg{seq: 1000 + 3000*i, data: make([]byte, 1448)})
	}
	c.lastOOO = seqRange{start: 1000 + 3000*5, end: 1000 + 3000*5 + 1448}
	src, dst := IPv4Addr{10, 0, 0, 1}, IPv4Addr{10, 0, 0, 2}
	seg := make([]byte, 60)
	if a := testing.AllocsPerRun(100, func() {
		h := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPAck, HasTS: true, SACK: c.sackBlocks()}
		hl := h.encodedLen()
		PutTCPHeader(seg, h, src, dst, hl)
		got, _, err := parseTCPHeader(seg[:hl], src, dst, s.sackRx[:])
		if err != nil || len(got.SACK) != MaxSACKBlocks || got.SACK[0].Start != c.lastOOO.start {
			t.Fatalf("round trip: %+v, %v", got, err)
		}
	}); a != 0 {
		t.Fatalf("a SACK-bearing ACK costs %v allocs, want 0", a)
	}
}

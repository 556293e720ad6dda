//go:build !race

package fstack

import (
	"slices"
	"testing"
)

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
// runs than fit, and parsing it back on the stack's input path — and
// parsing the four blocks a peer without timestamps may send (RFC 2018
// §3), one more than the stack ever builds.
func TestSACKAckZeroAllocs(t *testing.T) {
	c := bareReceiver(t, 32<<10, 0)
	s := c.stk
	for i := uint32(0); i < 6; i++ {
		c.oooInsert(1000+3000*i, make([]byte, 1448))
	}
	c.cold.lastOOO = seqRange{start: 1000 + 3000*5, end: 1000 + 3000*5 + 1448}
	src, dst := IPv4Addr{10, 0, 0, 1}, IPv4Addr{10, 0, 0, 2}
	seg := make([]byte, 60)
	if a := testing.AllocsPerRun(100, func() {
		h := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPAck, HasTS: true, SACK: c.sackBlocks()}
		hl := h.encodedLen()
		putTCPHeaderEager(seg, h, src, dst, hl)
		got, _, err := parseTCPHeader(seg[:hl], src, dst, s.sackRx[:], false)
		if err != nil || len(got.SACK) != MaxSACKBlocks || got.SACK[0].Start != c.cold.lastOOO.start {
			t.Fatalf("round trip: %+v, %v", got, err)
		}
	}); a != 0 {
		t.Fatalf("a SACK-bearing ACK costs %v allocs, want 0", a)
	}

	four := []SACKBlock{{100, 200}, {300, 400}, {500, 600}, {700, 800}}
	h := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPAck, SACK: four}
	hl := h.encodedLen()
	if hl != 56 {
		t.Fatalf("a four-block header is %d bytes, want 56", hl)
	}
	putTCPHeaderEager(seg, h, src, dst, hl)
	if a := testing.AllocsPerRun(100, func() {
		got, _, err := parseTCPHeader(seg[:hl], src, dst, s.sackRx[:], false)
		if err != nil || !slices.Equal(got.SACK, four) {
			t.Fatalf("four blocks without timestamps: %+v, %v", got, err)
		}
	}); a != 0 {
		t.Fatalf("a four-block SACK costs %v allocs, want 0", a)
	}
}

// TestReassemblyZeroAllocs pins what in-ring reassembly is for: once the
// run list has its capacity, parking a segment — as a new run, extending
// one, or merging two — and draining the runs allocate nothing.
func TestReassemblyZeroAllocs(t *testing.T) {
	c := bareReceiver(t, 64<<10, 0)
	seg, hole := make([]byte, 100), make([]byte, 1000)
	round := func() {
		for i := uint32(0); i < 10; i++ {
			c.oooInsert(1000+300*i, seg) // ten runs
		}
		for i := uint32(0); i < 10; i++ {
			c.oooInsert(1100+300*i, seg) // each extended
		}
		c.oooInsert(1200, seg) // the first two merged
		c.rcvBuf.writeFrom(c.stk.seg, hole)
		c.rcvNxt = 1000
		c.oooDrain()
		if c.rcvNxt != 1500 || c.rcvBuf.Len() != 1500 || len(c.rcvOOO()) != 8 {
			t.Fatalf("after the drain: rcvNxt %d, %d buffered, %d runs", c.rcvNxt, c.rcvBuf.Len(), len(c.rcvOOO()))
		}
		c.rcvNxt, c.cold.rcvOOO, c.rcvBuf.r, c.rcvBuf.w = 0, c.cold.rcvOOO[:0], 0, 0
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("parking and draining 21 segments costs %v allocs, want 0", a)
	}
}

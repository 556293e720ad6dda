package fstack

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hostos"
	"repro/internal/netem"
)

// TestFastRetransmitOnThreeDupAcks drops exactly one data segment;
// recovery must complete via the dup-ACK fast path, without an RTO.
func TestFastRetransmitOnThreeDupAcks(t *testing.T) {
	drop := &wireRule{from: fromA, kind: dataSeg, nth: 5, drop: true}
	e := newRig(t, false, (&scriptWire{rules: []*wireRule{drop}}).attach)
	cfd, afd := e.connectPair(5001)
	payload := bytes.Repeat([]byte{0xA5}, 128*1024)
	got := sendAll(e, cfd, afd, payload, 60000)
	if !bytes.Equal(got, payload) {
		t.Fatal("stream corrupted across fast retransmit")
	}
	if drop.seen < drop.nth {
		t.Fatal("the drop rule never fired — test is vacuous")
	}
	st := e.stkA.Stats()
	if st.FastRetransmit == 0 {
		t.Fatalf("no fast retransmit recorded: %+v", st)
	}
	if st.RTORetransmit != 0 {
		t.Fatalf("single loss needed an RTO (%d): dup-ACK path broken", st.RTORetransmit)
	}
	if st.DupAcks < 3 {
		t.Fatalf("sender saw %d dup-ACKs, want >= 3", st.DupAcks)
	}
}

// TestRTOBackoffExponential is the regression test for RFC 6298 §5.5:
// on repeated timeouts of the same segment the retransmission gaps
// must double, capped at rtoMax, not tick at a fixed rtoMin cadence.
func TestRTOBackoffExponential(t *testing.T) {
	var attempts []int64
	blackhole := &wireRule{from: fromA, kind: dataSeg, when: func(f *wireFrame) bool {
		attempts = append(attempts, f.at)
		return true
	}, drop: true}
	w := &scriptWire{}
	e := newRig(t, false, w.attach)
	cfd, afd := e.connectPair(5001)
	// Warm the RTT estimator so rto sits at the floor before the loss.
	warm := bytes.Repeat([]byte{1}, 8192)
	if got := sendAll(e, cfd, afd, warm, 20000); len(got) != len(warm) {
		t.Fatal("warmup transfer failed")
	}
	w.rules = append(w.rules, blackhole)
	if _, errno := e.stkA.Write(cfd, bytes.Repeat([]byte{2}, 1000)); errno != hostos.OK {
		t.Fatalf("write: %v", errno)
	}
	// ~4 s of virtual time: enough for the doubling series to hit the
	// 1 s rtoMax cap at least once.
	for i := 0; i < 800_000 && len(attempts) < 14; i++ {
		e.tick()
	}
	if len(attempts) < 6 {
		t.Fatalf("only %d retransmission attempts observed", len(attempts))
	}
	var gaps []int64
	for i := 1; i < len(attempts); i++ {
		gaps = append(gaps, attempts[i]-attempts[i-1])
	}
	t.Logf("retransmit gaps (ns): %v", gaps)
	capped := 0
	for i := 1; i < len(gaps); i++ {
		if gaps[i-1] >= rtoMax {
			// Once at the cap, stay at the cap.
			if gaps[i] < rtoMax || gaps[i] > rtoMax+rtoMax/4 {
				t.Fatalf("gap %d = %d ns: cap at rtoMax=%d not held", i, gaps[i], int64(rtoMax))
			}
			capped++
			continue
		}
		ratio := float64(gaps[i]) / float64(gaps[i-1])
		if ratio < 1.7 || ratio > 2.4 {
			t.Fatalf("gap %d/%d ratio %.2f: backoff is not exponential (gaps %v)", i, i-1, ratio, gaps)
		}
	}
	if capped == 0 {
		t.Fatalf("backoff never reached the rtoMax cap (gaps %v)", gaps)
	}
}

// TestLostFINResentAtFinSeq loses A's FIN, and in the second row the
// segment carrying the last data byte with it. Close fixed the FIN's
// sequence number, so the timeout rewind requeues the FIN by itself: it
// leaves once more, after the RTO and at the same finSeq, and both ends
// close, A through TIME_WAIT.
func TestLostFINResentAtFinSeq(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dropLast bool // also drop the first segment that ends at finSeq
	}{
		{"FIN dropped", false},
		{"last data segment and FIN dropped", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var finSeq uint32
			dropFIN := &wireRule{from: fromA, flags: TCPFin, nth: 1, drop: true}
			dropLast := &wireRule{from: fromA, kind: dataSeg, nth: 1, drop: true, when: func(f *wireFrame) bool {
				return tc.dropLast && f.h.Seq+uint32(f.n) == finSeq
			}}
			w := &scriptWire{rules: []*wireRule{dropFIN, dropLast}, record: true}
			e := newRig(t, false, w.attach)
			cfd, afd := e.connectPair(5001)
			walkA := stateWalk(e.stkA)
			c := e.stkA.sockOf(cfd).conn
			payload := bytes.Repeat([]byte{0x5A}, 10000)
			finSeq = c.sndNxt + uint32(len(payload))
			if n, errno := e.stkA.Write(cfd, payload); errno != hostos.OK || n != len(payload) {
				t.Fatalf("write: %d, %v", n, errno)
			}
			e.stkA.Close(cfd)
			if c.finSeq != finSeq {
				t.Fatalf("Close set finSeq %d, want %d (sndUna + queued bytes)", c.finSeq, finSeq)
			}
			// B reads to EOF, then closes.
			var got []byte
			buf := make([]byte, 4096)
			closedB := false
			e.pumpUntil(60000, "both tables drained", func() bool {
				for !closedB {
					n, errno := e.stkB.Read(afd, buf)
					if errno != hostos.OK {
						break
					}
					if n == 0 {
						e.stkB.Close(afd)
						closedB = true
					}
					got = append(got, buf[:n]...)
				}
				return e.stkA.conns.n == 0 && e.stkB.conns.n == 0
			})
			if !bytes.Equal(got, payload) {
				t.Fatalf("B read %d bytes, want the %d A wrote", len(got), len(payload))
			}
			var finAt []int64 // when each of A's FINs left
			var finSeqs []uint32
			for _, f := range w.segs(0) {
				if f.h.Flags&TCPFin != 0 {
					finAt, finSeqs = append(finAt, f.at), append(finSeqs, f.h.Seq)
				}
			}
			if droppedFIN, droppedLast := dropFIN.seen > 0, dropLast.seen > 0; !droppedFIN || droppedLast != tc.dropLast {
				t.Fatalf("drops: FIN %v, last segment %v — the rule missed its segment", droppedFIN, droppedLast)
			}
			if len(finAt) != 2 || finSeqs[0] != finSeq || finSeqs[1] != finSeq {
				t.Fatalf("A sent FINs at seqs %v, want two at finSeq %d", finSeqs, finSeq)
			}
			if gap := finAt[1] - finAt[0]; gap < rtoMin {
				t.Errorf("FIN resent %d ns after the first, before an RTO (floor %d ns)", gap, int64(rtoMin))
			}
			if rto := e.stkA.Stats().RTORetransmit; (rto > 0) != tc.dropLast {
				t.Errorf("%d data segments resent after the timeout", rto)
			}
			if got, want := walkA(), "FIN_WAIT_1 FIN_WAIT_2 TIME_WAIT CLOSED"; got != want {
				t.Errorf("A went %s, want %s", got, want)
			}
		})
	}
}

// TestSpuriousRTONearRTOMin stalls the ACK channel just long enough to
// fire a premature timeout while the data was actually delivered; the
// late ACKs then land past sndNxt and the connection must skip ahead
// and carry on intact.
func TestSpuriousRTONearRTOMin(t *testing.T) {
	var stallUntil int64
	// Hold the receiver's ACKs back to the end of the stall.
	stall := &wireRule{from: fromB, when: func(f *wireFrame) bool { return f.readyAt < stallUntil },
		delay: func(f *wireFrame) int64 { return stallUntil - f.readyAt }}
	e := newRig(t, false, (&scriptWire{rules: []*wireRule{stall}}).attach)
	cfd, afd := e.connectPair(5001)
	warm := bytes.Repeat([]byte{1}, 8192)
	if got := sendAll(e, cfd, afd, warm, 20000); len(got) != len(warm) {
		t.Fatal("warmup transfer failed")
	}
	// Stall ACKs for 20 ms — ten times the 2 ms rtoMin the estimator
	// has converged near.
	stallUntil = e.clk.Now() + 20e6
	payload := bytes.Repeat([]byte{3}, 256*1024)
	got := sendAll(e, cfd, afd, payload, 120000)
	if !bytes.Equal(got, payload) {
		t.Fatal("stream corrupted across a spurious RTO")
	}
	st := e.stkA.Stats()
	if st.RTORetransmit == 0 {
		t.Fatalf("the stall never provoked an RTO: %+v (test is vacuous)", st)
	}
	if state := e.stkA.ConnState(cfd); state != "ESTABLISHED" {
		t.Fatalf("connection state %s after spurious RTO", state)
	}
}

// TestSACKRecoveryOverLossyLink runs a seeded 2 % loss link with SACK
// and window scaling on: the stream must survive intact and recovery
// must be scoreboard-driven.
func TestSACKRecoveryOverLossyLink(t *testing.T) {
	cfg := netem.Config{Seed: 11, LossRate: 0.02}
	e := newRig(t, false, netemLink(cfg, cfg))
	tune := TCPTuning{SACK: true, WindowScale: 4, SndBufBytes: 1 << 20, RcvBufBytes: 1 << 20}
	e.stkA.SetTCPTuning(tune)
	e.stkB.SetTCPTuning(tune)
	cfd, afd := e.connectPair(5001)

	conn := e.stkA.sockOf(cfd).conn
	if !conn.sackOK || conn.sndWScale != 4 || conn.rcvWScale != 4 {
		t.Fatalf("negotiation failed: sackOK=%v snd<<%d rcv<<%d", conn.sackOK, conn.sndWScale, conn.rcvWScale)
	}

	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got := sendAll(e, cfd, afd, payload, 400_000)
	if !bytes.Equal(got, payload) {
		t.Fatal("stream corrupted across SACK recovery")
	}
	st := e.stkA.Stats()
	t.Logf("sender recovery: %s", st.RecoverySummary())
	if st.SACKRetransmit == 0 {
		t.Fatalf("2%% loss never exercised the scoreboard: %+v", st)
	}
}

// TestTuningOffKeepsWireIdentical pins the negotiation default: with
// zero tuning neither SYN carries the new options and nothing is
// scaled, so Scenarios 1-4 stay byte-identical.
func TestTuningOffKeepsWireIdentical(t *testing.T) {
	e := newEnv(t, false)
	cfd, _ := e.connectPair(5001)
	conn := e.stkA.sockOf(cfd).conn
	sackOK, sndWS, rcvWS := conn.sackOK, conn.sndWScale, conn.rcvWScale
	if sackOK || sndWS != 0 || rcvWS != 0 {
		t.Fatalf("default tuning negotiated features: sack=%v ws=%d/%d", sackOK, sndWS, rcvWS)
	}
}

// Property: whatever out-of-order soup arrives, the generated SACK
// blocks stay within the receive window, never overlap, never cover
// rcvNxt, and lead with the most recent arrival (RFC 2018 §4).
func TestQuickSACKBlocksValid(t *testing.T) {
	e := newEnv(t, false)
	// SACK generation is receiver-local state; flip it on directly.
	cfd, afd := e.connectPair(5001)
	_ = cfd
	conn := e.stkB.sockOf(afd).conn
	conn.sackOK = true

	f := func(offsets []uint16, sizes []uint8) bool {
		conn.takeCold().rcvOOO = nil
		for i, off := range offsets {
			size := 1
			if i < len(sizes) {
				size = int(sizes[i])%2048 + 1
			}
			seq := conn.rcvNxt + 1 + uint32(off) // never at rcvNxt: always a hole
			payload := make([]byte, size)
			conn.oooInsert(seq, payload)
			conn.cold.lastOOO = seqRange{start: seq, end: seq + uint32(len(payload))}
		}
		if err := checkRuns(conn); err != nil {
			t.Log(err)
			return false
		}
		blocks := conn.sackBlocks()
		if len(blocks) > MaxSACKBlocks {
			return false
		}
		wndEnd := conn.rcvNxt + uint32(conn.rcvBuf.Free())
		for i, b := range blocks {
			if !seqLT(b.Start, b.End) {
				return false // empty or inverted
			}
			if seqLE(b.Start, conn.rcvNxt) || seqGT(b.End, wndEnd) {
				return false // outside the receive window
			}
			for j, o := range blocks {
				if i == j {
					continue
				}
				if seqLT(b.Start, o.End) && seqLT(o.Start, b.End) {
					return false // overlap
				}
			}
		}
		// First block reports the most recent arrival's run, whenever
		// that run survived the insert budget.
		if len(blocks) > 0 {
			for _, r := range conn.rcvOOO() {
				if seqLE(r.start, conn.cold.lastOOO.start) && seqLT(conn.cold.lastOOO.start, r.end) {
					if !(seqLE(blocks[0].Start, conn.cold.lastOOO.start) && seqLT(conn.cold.lastOOO.start, blocks[0].End)) {
						return false
					}
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkRuns verifies the reassembly list's invariants: runs non-empty,
// sorted, disjoint and non-adjacent; none reaching past the ring's free
// space (run.end <= rcvNxt+Free()); none straddling rcvNxt — a run is
// either wholly ahead of it or, after a window overrun wrote over it,
// wholly stale until the next drain drops it.
func checkRuns(c *tcpConn) error {
	limit := c.rcvNxt + uint32(c.rcvBuf.Free())
	live := 0
	for i, r := range c.rcvOOO() {
		switch {
		case !seqLT(r.start, r.end):
			return fmt.Errorf("run %d %+v is empty", i, r)
		case i > 0 && !seqLT(c.rcvOOO()[i-1].end, r.start):
			return fmt.Errorf("runs %d %+v and %d %+v overlap, touch or are out of order", i-1, c.rcvOOO()[i-1], i, r)
		case seqGT(r.end, limit):
			return fmt.Errorf("run %d %+v ends past rcvNxt+Free = %d", i, r, limit)
		case seqLE(r.start, c.rcvNxt) && seqGT(r.end, c.rcvNxt):
			return fmt.Errorf("run %d %+v straddles rcvNxt %d: a drain was missed", i, r, c.rcvNxt)
		}
		if seqGT(r.start, c.rcvNxt) {
			live += int(r.end - r.start)
		}
	}
	if c.rcvBuf.Len()+live > int(c.rcvBuf.size) {
		return fmt.Errorf("%d buffered + %d parked exceed the %d-byte ring", c.rcvBuf.Len(), live, c.rcvBuf.size)
	}
	return nil
}

// bareReceiver is a connection with only what reassembly touches: a
// receive ring and a stack to count refusals on, which owns the ring's
// segment and pools the cold record. Enough
// for oooInsert, oooDrain and sackBlocks; acceptData needs a real stack
// to send its ACKs through (see reassRig).
func bareReceiver(t testing.TB, size int, rcvNxt uint32) *tcpConn {
	t.Helper()
	seg, _ := testSeg(t, false)
	ring, err := newSockBuf(seg, size)
	if err != nil {
		t.Fatal(err)
	}
	return &tcpConn{stk: &Stack{seg: seg}, rcvBuf: *ring, rcvNxt: rcvNxt}
}

// oooSeg is one parked segment of the reference queue.
type oooSeg struct {
	seq  uint32
	data []byte
}

// refReassembly is the receiver the stack had before runs lived in the
// ring, kept as the differential reference: every parked segment its
// own heap copy in a queue sorted by sequence number, walked whole for
// every SACK option, and copied a second time into the receive buffer at
// drain. It keeps the stack's run budget, counted over its coalesced
// runs: at the budget an arrival that would start a run of its own is
// refused, one that overlaps or abuts a run is not. The window check
// alone bounds its parked bytes. buf models the receive ring (bytes
// sequenced and not yet read); acceptData is the old acceptData minus
// the ACKs it sent.
type refReassembly struct {
	rcvNxt  uint32
	size    int
	buf     []byte
	ooo     []oooSeg
	lastOOO seqRange
	refused int // arrivals turned away by the budget or the window check
}

func (r *refReassembly) free() int { return r.size - len(r.buf) }

func (r *refReassembly) oooBytes() int {
	t := 0
	for _, s := range r.ooo {
		t += len(s.data)
	}
	return t
}

func (r *refReassembly) oooInsert(seq uint32, payload []byte) {
	end := seq + uint32(len(payload))
	if runs := r.runs(); len(runs) >= max(oooMaxRuns, r.size/MaxSegData) &&
		!slices.ContainsFunc(runs, func(b SACKBlock) bool { return seqLE(b.Start, end) && seqGE(b.End, seq) }) {
		r.refused++
		return
	}
	if seqGT(end, r.rcvNxt+uint32(r.free())) {
		r.refused++
		return
	}
	pos := 0
	for pos < len(r.ooo) && seqLT(r.ooo[pos].seq, seq) {
		pos++
	}
	// Trim against predecessor.
	if pos > 0 {
		prev := r.ooo[pos-1]
		prevEnd := prev.seq + uint32(len(prev.data))
		if seqGE(prevEnd, seq+uint32(len(payload))) {
			return // fully contained
		}
		if seqGT(prevEnd, seq) {
			payload = payload[prevEnd-seq:]
			seq = prevEnd
		}
	}
	// Trim against successor. This is where the old queue threw new
	// bytes away: it looked at one neighbour on each side, so a segment
	// reaching past its successor lost everything beyond the successor's
	// start (see TestReassemblyKeepsBytesPastANeighbour).
	if pos < len(r.ooo) {
		next := r.ooo[pos]
		if seqLE(next.seq, seq) {
			return
		}
		if seqGT(seq+uint32(len(payload)), next.seq) {
			payload = payload[:next.seq-seq]
		}
	}
	if len(payload) == 0 {
		return
	}
	r.ooo = slices.Insert(r.ooo, pos, oooSeg{seq: seq, data: bytes.Clone(payload)})
}

func (r *refReassembly) oooDrain() {
	for len(r.ooo) > 0 {
		s := r.ooo[0]
		end := s.seq + uint32(len(s.data))
		if seqGT(s.seq, r.rcvNxt) {
			return // still a hole
		}
		if seqLE(end, r.rcvNxt) {
			r.ooo = r.ooo[1:] // stale
			continue
		}
		data := s.data[r.rcvNxt-s.seq:]
		if len(data) > r.free() {
			return // no room; keep parked
		}
		r.buf = append(r.buf, data...)
		r.rcvNxt = end
		r.ooo = r.ooo[1:]
	}
}

func (r *refReassembly) acceptData(seq uint32, payload []byte) {
	if len(payload) == 0 {
		return
	}
	if seq != r.rcvNxt {
		if seqGT(seq, r.rcvNxt) {
			r.oooInsert(seq, payload)
			r.lastOOO = seqRange{start: seq, end: seq + uint32(len(payload))}
		} else if seqGT(seq+uint32(len(payload)), r.rcvNxt) {
			tail := payload[r.rcvNxt-seq:]
			if n := min(len(tail), r.free()); n > 0 {
				r.buf = append(r.buf, tail[:n]...)
				r.rcvNxt += uint32(n)
				r.oooDrain()
			}
		}
		return
	}
	n := min(len(payload), r.free())
	r.buf = append(r.buf, payload[:n]...)
	r.rcvNxt += uint32(n)
	if n < len(payload) {
		return // window overrun: no drain, as the stack has it
	}
	r.oooDrain()
}

// read is the application consuming up to n sequenced bytes.
func (r *refReassembly) read(n int) []byte {
	n = min(n, len(r.buf))
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

// runs coalesces the queue into the contiguous runs it holds.
func (r *refReassembly) runs() []SACKBlock {
	var runs []SACKBlock
	for _, s := range r.ooo {
		end := s.seq + uint32(len(s.data))
		if n := len(runs); n > 0 && runs[n-1].End == s.seq {
			runs[n-1].End = end
		} else {
			runs = append(runs, SACKBlock{Start: s.seq, End: end})
		}
	}
	return runs
}

// sackBlocks is the construction the SACK option started from: coalesce
// every run, find the one holding the latest arrival, emit it first and
// the rest in sequence order.
func (r *refReassembly) sackBlocks() []SACKBlock {
	runs := r.runs()
	if len(runs) == 0 {
		return nil
	}
	first := 0
	for i, run := range runs {
		if seqLE(run.Start, r.lastOOO.start) && seqLT(r.lastOOO.start, run.End) {
			first = i
			break
		}
	}
	out := []SACKBlock{runs[first]}
	for i := 0; i < len(runs) && len(out) < MaxSACKBlocks; i++ {
		if i != first {
			out = append(out, runs[i])
		}
	}
	return out
}

// connRuns is the connection's run list in the reference's terms.
func connRuns(c *tcpConn) []SACKBlock {
	var runs []SACKBlock
	for _, r := range c.rcvOOO() {
		runs = append(runs, r.block())
	}
	return runs
}

func TestSACKBlocksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := bareReceiver(t, 64<<10, 0)
	for iter := 0; iter < 5000; iter++ {
		// A queue of 1..12 segments starting near the sequence wrap,
		// neighbours contiguous about half the time, so run counts cover 1
		// to well past MaxSACKBlocks — inserted in a shuffled order, so
		// runs also grow at the front and merge in the middle.
		seq := uint32(0xFFFFF000) + uint32(rng.Intn(0x2000))
		k := c.takeCold()
		c.rcvNxt, k.rcvOOO = seq-1, k.rcvOOO[:0]
		ref := &refReassembly{rcvNxt: c.rcvNxt, size: int(c.rcvBuf.size)}
		var segs []seqRange
		for n := 1 + rng.Intn(12); n > 0; n-- {
			if rng.Intn(2) == 0 {
				seq += 1 + uint32(rng.Intn(3000))
			}
			size := 1 + rng.Intn(1448)
			segs = append(segs, seqRange{start: seq, end: seq + uint32(size)})
			seq += uint32(size)
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		for _, s := range segs {
			payload := make([]byte, s.end-s.start)
			c.oooInsert(s.start, payload)
			ref.oooInsert(s.start, payload)
		}
		if err := checkRuns(c); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		// The latest arrival: usually one of the queued segments (any
		// position), sometimes a range the queue no longer holds.
		c.cold.lastOOO = segs[rng.Intn(len(segs))]
		if rng.Intn(8) == 0 {
			c.cold.lastOOO.start -= 1 + uint32(rng.Intn(5000))
		}
		ref.lastOOO = c.cold.lastOOO
		got, want := c.sackBlocks(), ref.sackBlocks()
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d (%d segments, lastOOO %v):\n got %v\nwant %v", iter, len(segs), c.cold.lastOOO, got, want)
		}
	}
}

// TestReassemblyKeepsBytesPastANeighbour pins the one place the run
// list is allowed to differ from the reference queue. The queue trimmed
// an arrival against one neighbour on each side: with [100,200) and
// [200,300) parked, [150,350) was cut to [200,350) by the first and then
// dropped whole because the second starts exactly there — 50 new bytes
// thrown away for the sender to retransmit. Likewise a longer resend of
// a short parked segment ([100,150) parked, [100,200) arriving) was
// dropped for starting where its successor does. Runs store every byte
// no run holds yet.
func TestReassemblyKeepsBytesPastANeighbour(t *testing.T) {
	stream := make([]byte, 400)
	for i := range stream {
		stream[i] = byte(i)
	}
	for _, tc := range []struct {
		name    string
		parked  []seqRange
		arrival seqRange
		refRuns []SACKBlock
		want    oooRun
	}{
		{"two abutting segments", []seqRange{{100, 200}, {200, 300}}, seqRange{150, 350},
			[]SACKBlock{{100, 300}}, oooRun{start: 100, end: 350}},
		{"short segment resent longer", []seqRange{{100, 150}}, seqRange{100, 200},
			[]SACKBlock{{100, 150}}, oooRun{start: 100, end: 200}},
		{"across a hole and a run", []seqRange{{100, 200}, {250, 300}}, seqRange{150, 350},
			[]SACKBlock{{100, 300}}, oooRun{start: 100, end: 350}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := bareReceiver(t, 1024, 0)
			ref := &refReassembly{size: 1024}
			for _, s := range append(tc.parked, tc.arrival) {
				c.oooInsert(s.start, stream[s.start:s.end])
				ref.oooInsert(s.start, stream[s.start:s.end])
			}
			if got := ref.runs(); !slices.Equal(got, tc.refRuns) {
				t.Fatalf("reference queue holds %v, want %v: the pinned difference moved", got, tc.refRuns)
			}
			if len(c.rcvOOO()) != 1 || c.rcvOOO()[0] != tc.want {
				t.Fatalf("runs %+v, want [%+v]", c.rcvOOO(), tc.want)
			}
			// Fill the hole: everything parked must come out, in order.
			if n, err := c.rcvBuf.writeFrom(c.stk.seg, stream[:100]); n != 100 || err != nil {
				t.Fatal(n, err)
			}
			c.rcvNxt = 100
			c.oooDrain()
			got := make([]byte, len(stream))
			n, _ := c.rcvBuf.readInto(c.stk.seg, got)
			if c.rcvNxt != tc.want.end || len(c.rcvOOO()) != 0 || !bytes.Equal(got[:n], stream[:tc.want.end]) {
				t.Fatalf("after the fill: rcvNxt %d, %d runs, %d bytes read; want the first %d stream bytes", c.rcvNxt, len(c.rcvOOO()), n, tc.want.end)
			}
		})
	}
}

// TestReassemblyRefusalsAreCounted forces both of oooInsert's refusal
// exits and checks each lands in StackStats.ReassDrops, and that the
// sharded aggregator carries the counter.
func TestReassemblyRefusalsAreCounted(t *testing.T) {
	c := bareReceiver(t, 64<<10, 1000)
	seg := make([]byte, 1448)
	c.oooInsert(2000, seg)
	c.oooInsert(5000, seg)
	if c.stk.stats.ReassDrops != 0 || len(c.rcvOOO()) != 2 {
		t.Fatalf("two segments inside the window: %d drops, runs %+v", c.stk.stats.ReassDrops, c.rcvOOO())
	}
	c.oooInsert(c.rcvNxt+uint32(c.rcvBuf.Free())-1447, seg) // one byte past the window
	if c.stk.stats.ReassDrops != 1 || len(c.rcvOOO()) != 2 {
		t.Fatalf("past the window: %d drops, runs %+v", c.stk.stats.ReassDrops, c.rcvOOO())
	}
	c.oooInsert(c.rcvNxt+uint32(c.rcvBuf.Free())-1448, seg) // flush with it
	if c.stk.stats.ReassDrops != 1 || len(c.rcvOOO()) != 3 {
		t.Fatalf("flush with the window: %d drops, runs %+v", c.stk.stats.ReassDrops, c.rcvOOO())
	}
	// Run budget: a hostile peer's alternating one-byte arrivals, each
	// its own run, stop at the budget.
	// The reference takes the same arrivals and must agree on each.
	c = bareReceiver(t, 64<<10, 0)
	ref := &refReassembly{size: 64 << 10}
	insert := func(seq uint32) {
		c.oooInsert(seq, seg[:1])
		ref.oooInsert(seq, seg[:1])
	}
	budget := c.oooRunCap()
	for i := 0; i <= budget; i++ {
		insert(uint32(10 + 2*i))
	}
	if c.stk.stats.ReassDrops != 1 || len(c.rcvOOO()) != budget {
		t.Fatalf("over the run budget: %d drops, %d runs", c.stk.stats.ReassDrops, len(c.rcvOOO()))
	}
	// At the budget an arrival that abuts a run, or fills the hole
	// between two, costs no run and is taken; the freed run takes the
	// next island.
	last := uint32(10 + 2*(budget-1))
	insert(last + 1)
	insert(11)
	if c.stk.stats.ReassDrops != 1 || len(c.rcvOOO()) != budget-1 {
		t.Fatalf("arrivals that grow runs at the budget: %d drops, %d runs", c.stk.stats.ReassDrops, len(c.rcvOOO()))
	}
	insert(last + 10)
	insert(last + 20)
	if c.stk.stats.ReassDrops != 2 || len(c.rcvOOO()) != budget {
		t.Fatalf("islands after a merge: %d drops, %d runs", c.stk.stats.ReassDrops, len(c.rcvOOO()))
	}
	if err := checkRuns(c); err != nil {
		t.Fatal(err)
	}
	if int(c.stk.stats.ReassDrops) != ref.refused || !slices.Equal(connRuns(c), ref.runs()) {
		t.Fatalf("the reference refused %d and holds %d runs; the stack %d and %d", ref.refused, len(ref.runs()), c.stk.stats.ReassDrops, len(c.rcvOOO()))
	}
	var sum StackStats
	sum.Add(c.stk.stats)
	sum.Add(StackStats{ReassDrops: 4})
	if sum.ReassDrops != 6 {
		t.Fatalf("StackStats.Add carried %d reassembly drops, want 6", sum.ReassDrops)
	}
	// The counter reaches the reports — and only when it has something
	// to say, so a run that dropped nothing prints as it always did.
	if got := sum.RecoverySummary(); !strings.HasSuffix(got, ", reass-drops 6") {
		t.Fatalf("summary does not report the drops: %q", got)
	}
	if got := (StackStats{}).RecoverySummary(); strings.Contains(got, "reass") {
		t.Fatalf("a clean run's summary changed: %q", got)
	}
}

// reassRig drives the real receive path — tcpConn.acceptData on an
// established connection of a two-stack rig, so every arrival also
// builds and sends its ACK — against a source stream whose byte at
// sequence isn+i is src[i]. The rig is never polled: the ACKs pile up in
// the TX ring and are then refused, which is all the receiver needs.
type reassRig struct {
	stk  *Stack
	conn *tcpConn
	isn  uint32
	src  []byte
}

func newReassRig(t testing.TB) *reassRig {
	e := newEnv(t, false)
	_, afd := e.connectPair(5001)
	conn := e.stkB.sockOf(afd).conn
	conn.sackOK = true
	return &reassRig{stk: e.stkB, conn: conn}
}

// reset gives the connection a fresh receive ring of the given size
// (unbacked when lazy) and restarts the stream at isn. The old ring goes
// back to the stack's segment first, which hands a ring of a size it
// took before back again, so the segment holds one ring per size.
func (g *reassRig) reset(t testing.TB, size int, lazy bool, isn uint32, src []byte) {
	c := g.conn
	c.rcvBuf.release(g.stk.seg)
	c.rcvBuf = sockBuf{size: uint32(size)}
	if !lazy {
		if err := c.rcvBuf.back(g.stk.seg); err != nil {
			t.Fatal(err)
		}
	}
	k := c.takeCold()
	c.rcvNxt, k.rcvOOO, k.lastOOO = isn, k.rcvOOO[:0], seqRange{}
	g.isn, g.src = isn, src
}

// arrive delivers stream bytes [from, to) as one segment.
func (g *reassRig) arrive(from, to int) {
	g.conn.acceptData(TCPHeader{Seq: g.isn + uint32(from)}, g.src[from:to])
}

// read is the application consuming up to n bytes.
func (g *reassRig) read(n int) []byte {
	out := make([]byte, n)
	n, _ = g.conn.rcvBuf.readInto(g.stk.seg, out)
	return out[:n]
}

// TestReassemblyMatchesReference is the differential test of in-ring
// reassembly: seeded arrival traces near the sequence wrap — MSS-aligned
// segments opening holes, retransmissions on the parked boundaries,
// go-back-N resends from rcvNxt, fills, beyond-window probes, the
// application reading in between, lazy and eager rings —
// drive the stack's receiver and the per-segment reference queue side by
// side. After every arrival both must have made the same accept/refuse
// decision and hold the same rcvNxt, the same SACK option and the same
// readable bytes; at the end both have delivered the same prefix of the
// source. The one arrival the two may treat differently — the reference
// discarding bytes past a neighbour, pinned by
// TestReassemblyKeepsBytesPastANeighbour — is left out of these traces
// and gets its own below.
func TestReassemblyMatchesReference(t *testing.T) {
	const traces = 6000
	g := newReassRig(t)
	var arrivals, parkedArrivals, refusals, wraps int
	stream := make([]byte, 3*256<<10)
	rand.New(rand.NewSource(1)).Read(stream)
	for trace := 0; trace < traces; trace++ {
		rng := rand.New(rand.NewSource(int64(trace)))
		size := 4096 << (2 * rng.Intn(4)) // 4 KiB .. 256 KiB
		mss := []int{MaxSegData, MaxSegData, 536, 100, 9}[rng.Intn(5)]
		src := stream[:3*size]
		isn := -uint32(rng.Intn(2 * size))
		g.reset(t, size, trace%2 == 1, isn, src)
		ref := &refReassembly{rcvNxt: isn, size: size}
		var delivered []byte
		steps := 120
		if mss <= 100 {
			// Many short runs to merge and split. No trace reaches the
			// run budget: TestReassemblyRefusalsAreCounted's rows do.
			steps = 400
		}
		for step := 0; step < steps; step++ {
			nxt := int(ref.rcvNxt - isn) // stream offset of rcvNxt
			if nxt >= len(src)-size {
				break
			}
			if rng.Intn(6) == 0 {
				n := rng.Intn(len(ref.buf) + 1)
				got, want := g.read(n), ref.read(n)
				if !bytes.Equal(got, want) {
					t.Fatalf("trace %d step %d: read of %d bytes differs from the reference", trace, step, n)
				}
				delivered = append(delivered, got...)
				continue
			}
			// Pick the segment [from, to) of the stream that arrives.
			aligned := func(k int) (int, int) { return k * mss, min((k+1)*mss, len(src)) }
			var from, to int
			switch k := rng.Intn(10); {
			case k < 3: // the next in-order bytes, resegmented from rcvNxt
				from, to = nxt, min(nxt+mss, len(src))
			case k < 6: // an aligned segment somewhere in (or just past) the window
				from, to = aligned(nxt/mss + rng.Intn(ref.free()/mss+3))
			case k < 8 && len(ref.ooo) > 0: // on a parked boundary: before, on, or after a parked segment
				s := ref.ooo[rng.Intn(len(ref.ooo))]
				at := int(s.seq - isn)
				switch rng.Intn(4) {
				case 0:
					from, to = max(at-mss, 0), at
				case 1:
					from, to = at, at+len(s.data)
				case 2:
					from, to = at+len(s.data), min(at+len(s.data)+mss, len(src))
				default: // unaligned, overlapping its front or back
					from = max(at-rng.Intn(mss), 0)
					to = min(from+mss, len(src))
				}
			case k < 9: // straddling rcvNxt: partly delivered already
				from = max(nxt-rng.Intn(mss), 0)
				to = min(from+mss, len(src))
			default: // an old duplicate
				from, to = aligned(rng.Intn(nxt/mss + 1))
			}
			if from >= to {
				continue
			}
			seq := isn + uint32(from)
			if refDiscards(ref, seq, src[from:to]) {
				continue
			}
			wasParked, wasRefused := len(ref.ooo), ref.refused
			dropsBefore := g.stk.stats.ReassDrops
			g.arrive(from, to)
			ref.acceptData(seq, src[from:to])
			arrivals++
			if len(ref.ooo) > wasParked {
				parkedArrivals++
			}
			refusals += ref.refused - wasRefused
			c := g.conn
			if got, want := int(g.stk.stats.ReassDrops-dropsBefore), ref.refused-wasRefused; got != want {
				t.Fatalf("trace %d step %d [%d,%d): refused %d, reference %d", trace, step, from, to, got, want)
			}
			if c.rcvNxt != ref.rcvNxt || c.rcvBuf.Len() != len(ref.buf) || c.cold.lastOOO != ref.lastOOO {
				t.Fatalf("trace %d step %d [%d,%d): rcvNxt %d len %d lastOOO %v, reference %d %d %v",
					trace, step, from, to, c.rcvNxt, c.rcvBuf.Len(), c.cold.lastOOO, ref.rcvNxt, len(ref.buf), ref.lastOOO)
			}
			if got, want := c.rcvWnd(), uint32(min(ref.free(), maxRcvWnd)); got != want {
				t.Fatalf("trace %d step %d [%d,%d): window %d, reference %d: parked bytes must not be charged to it", trace, step, from, to, got, want)
			}
			if got, want := c.sackBlocks(), ref.sackBlocks(); !slices.Equal(got, want) {
				t.Fatalf("trace %d step %d [%d,%d): SACK %v, reference %v", trace, step, from, to, got, want)
			}
			if got, want := connRuns(c), ref.runs(); !slices.Equal(got, want) {
				t.Fatalf("trace %d step %d [%d,%d): runs %v, reference %v", trace, step, from, to, got, want)
			}
			if err := checkRuns(c); err != nil {
				t.Fatalf("trace %d step %d [%d,%d): %v", trace, step, from, to, err)
			}
		}
		if ref.rcvNxt < isn {
			wraps++
		}
		got, want := g.read(size), ref.read(size)
		delivered = append(delivered, got...)
		if !bytes.Equal(got, want) || !bytes.Equal(delivered, src[:len(delivered)]) {
			t.Fatalf("trace %d: delivered stream differs from the reference or is not a prefix of the source", trace)
		}
	}
	t.Logf("%d traces: %d arrivals, %d parked, %d refused, %d traces crossed the sequence wrap", traces, arrivals, parkedArrivals, refusals, wraps)
	if parkedArrivals < traces || refusals < traces/10 || wraps < traces/4 {
		t.Fatal("the traces did not exercise parking, refusal and the sequence wrap: test is vacuous")
	}
}

// refDiscards reports whether the reference queue would throw away
// bytes of this out-of-order arrival that it does not hold — the
// single-neighbour trimming the run list does not share.
func refDiscards(r *refReassembly, seq uint32, payload []byte) bool {
	if !seqGT(seq, r.rcvNxt) {
		return false
	}
	probe := *r
	probe.ooo = slices.Clone(r.ooo)
	probe.oooInsert(seq, payload)
	if probe.refused != r.refused {
		return false
	}
	fresh := len(payload) // bytes of the arrival no parked segment holds
	end := seq + uint32(len(payload))
	for _, s := range r.ooo {
		lo, hi := seqMax(s.seq, seq), s.seq+uint32(len(s.data))
		if seqGT(hi, end) {
			hi = end
		}
		if seqLT(lo, hi) {
			fresh -= int(hi - lo)
		}
	}
	return probe.oooBytes()-r.oooBytes() != fresh
}

// TestReassemblyHoldsASuperset runs the arrivals the differential test
// leaves out: unaligned segments reaching across parked neighbours.
// From the first such arrival the two receivers may differ, in one
// direction only — the run list holds everything the reference holds and
// possibly more, so its rcvNxt is never behind, and both still deliver
// prefixes of the source. A 64 KiB ring of these arrivals cannot
// exhaust the run budget, so holding more never costs an accept.
func TestReassemblyHoldsASuperset(t *testing.T) {
	const size, mss = 64 << 10, MaxSegData
	g := newReassRig(t)
	ahead := 0
	src := make([]byte, 3*size)
	rand.New(rand.NewSource(1)).Read(src)
	for trace := 0; trace < 500; trace++ {
		rng := rand.New(rand.NewSource(int64(trace)))
		isn := -uint32(rng.Intn(size))
		g.reset(t, size, false, isn, src)
		ref := &refReassembly{rcvNxt: isn, size: size}
		var delivered, refDelivered []byte
		for step := 0; step < 150; step++ {
			c := g.conn
			nxt := int(ref.rcvNxt - isn)
			if int(c.rcvNxt-isn) >= len(src)-size {
				break
			}
			switch k := rng.Intn(8); {
			case k == 0:
				n := rng.Intn(len(ref.buf) + 1) // the same count from both keeps their windows equal
				delivered = append(delivered, g.read(n)...)
				refDelivered = append(refDelivered, ref.read(n)...)
				continue
			case k == 1:
				g.arrive(nxt, nxt+mss)
				ref.acceptData(isn+uint32(nxt), src[nxt:nxt+mss])
			default: // up to three segments long, anywhere in the first part of the window
				from := nxt + 1 + rng.Intn(12*mss)
				to := from + 1 + rng.Intn(3*mss)
				if to-nxt > ref.free() {
					continue
				}
				g.arrive(from, to)
				ref.acceptData(isn+uint32(from), src[from:to])
			}
			if g.stk.stats.ReassDrops != 0 || ref.refused != 0 {
				t.Fatalf("trace %d step %d: a budget or the window refused an arrival", trace, step)
			}
			if seqLT(c.rcvNxt, ref.rcvNxt) {
				t.Fatalf("trace %d step %d: rcvNxt %d behind the reference's %d", trace, step, c.rcvNxt, ref.rcvNxt)
			}
			if c.rcvNxt != ref.rcvNxt {
				ahead++
			}
			for _, want := range ref.runs() {
				held := seqGE(c.rcvNxt, want.End)
				for _, r := range c.rcvOOO() {
					held = held || seqLE(r.start, seqMax(want.Start, c.rcvNxt)) && seqGE(r.end, want.End)
				}
				if !held {
					t.Fatalf("trace %d step %d: reference holds %v, runs %+v (rcvNxt %d) do not", trace, step, want, c.rcvOOO(), c.rcvNxt)
				}
			}
			if err := checkRuns(c); err != nil {
				t.Fatalf("trace %d step %d: %v", trace, step, err)
			}
		}
		delivered = append(delivered, g.read(size)...)
		refDelivered = append(refDelivered, ref.read(size)...)
		if !bytes.Equal(delivered, src[:len(delivered)]) || !bytes.Equal(refDelivered, src[:len(refDelivered)]) || len(delivered) < len(refDelivered) {
			t.Fatalf("trace %d: delivered %d bytes, reference %d; both must be prefixes of the source, the reference's the shorter", trace, len(delivered), len(refDelivered))
		}
	}
	if ahead == 0 {
		t.Fatal("the run list never got ahead of the reference: the traces hold no spanning arrival")
	}
}

// TestReceiverTakesWhatItAdvertised: a sender's 128 KiB writes leave a
// short segment among the full ones, and one frame lost as the flow
// fills a 4 MiB window parks the whole next window behind the hole —
// more arrivals than the ring holds full segments. The receiver must
// take every one of them, since each lies inside the window it
// advertised: no reassembly refusal, and so no resend left to the
// timeout. A budget on arrivals, not runs, refused the window's tail.
func TestReceiverTakesWhatItAdvertised(t *testing.T) {
	const ring, write, oneWay = 4 << 20, 128 << 10, 20e6
	var snd *tcpConn
	drop := &wireRule{from: fromA, kind: dataSeg, nth: 1, drop: true,
		when: func(*wireFrame) bool { return snd != nil && snd.cwnd >= ring }}
	var idle [2]int64 // each direction is a 2.5 Gbit/s line with an unbounded queue
	path := &wireRule{delay: func(f *wireFrame) int64 {
		idle[f.from] = max(f.readyAt, idle[f.from]) + int64(16*len(f.data)/5)
		return idle[f.from] - f.readyAt + oneWay
	}}
	e := newRig(t, false, (&scriptWire{rules: []*wireRule{drop, path}}).attach)
	tune := TCPTuning{SACK: true, WindowScale: 7, SndBufBytes: ring, RcvBufBytes: ring}
	e.stkA.SetTCPTuning(tune)
	e.stkB.SetTCPTuning(tune)
	lfd, cfd := e.dial(5001)
	afd := -1
	e.leapUntil(1e9, "accept", func() bool {
		if afd < 0 {
			afd, _, _, _ = e.stkB.Accept(lfd)
		}
		return afd >= 0 && e.stkA.ConnState(cfd) == "ESTABLISHED"
	})
	snd, rcv := e.stkA.sockOf(cfd).conn, e.stkB.sockOf(afd).conn
	st := &stream{from: e.stkA, to: e.stkB, wfd: cfd, rfd: afd, payload: make([]byte, 24<<20), chunk: write}
	rand.New(rand.NewSource(1)).Read(st.payload)
	maxParked := 0
	e.leapUntil(30e9, "transfer completes", func() bool {
		done := st.pump()
		parked := 0
		for _, r := range rcv.rcvOOO() {
			parked += int(r.end - r.start)
		}
		maxParked = max(maxParked, parked)
		return done
	})
	if !bytes.Equal(st.got, st.payload) {
		t.Fatal("stream corrupted across the recovery")
	}
	if dropped := drop.seen > 0; !dropped || maxParked < ring/2 {
		t.Fatalf("dropped %v, at most %d bytes parked: the loss never parked a window — test is vacuous", dropped, maxParked)
	}
	if st := e.stkB.Stats(); st.ReassDrops != 0 {
		t.Fatalf("the receiver refused %d in-window segments (at most %d bytes parked of a %d-byte ring)", st.ReassDrops, maxParked, ring)
	}
	if st := e.stkA.Stats(); st.RTORetransmit != 0 || st.SACKRetransmit == 0 {
		t.Fatalf("one loss took %d timeout resends and %d SACK fills, want 0 and some", st.RTORetransmit, st.SACKRetransmit)
	}
}

// TestTimeoutRecoveryPointGatesFastRecovery: a timeout records sndMax
// as its recovery point (RFC 6582 §3.2, FreeBSD's snd_recover). While
// the cumulative ACK is at or below it, duplicate ACKs are the go-back
// resend's echoes: a third one must not start fast recovery, whose
// ssthresh would come from the post-timeout pipe and whose own
// recovery point would lie a window ahead. Once an ACK passes the point
// the next three do.
func TestTimeoutRecoveryPointGatesFastRecovery(t *testing.T) {
	// The peer never sees our data.
	e := newRig(t, false, (&scriptWire{rules: []*wireRule{{from: fromA, kind: dataSeg, drop: true}}}).attach)
	tune := TCPTuning{SACK: true}
	e.stkA.SetTCPTuning(tune)
	e.stkB.SetTCPTuning(tune)
	cfd, _ := e.connectPair(5001)
	c := e.stkA.sockOf(cfd).conn
	if n, errno := e.stkA.Write(cfd, make([]byte, 8*MaxSegData)); n != 8*MaxSegData || errno != hostos.OK {
		t.Fatal(n, errno)
	}
	e.leapUntil(5e9, "a timeout", func() bool { return e.stkA.Stats().RTORetransmit > 0 })
	point := c.sndMax
	if c.cold == nil || c.cold.recoverPt != point || !c.cold.rtoRecover {
		t.Fatalf("after the timeout the cold record is %+v, want its recovery point at sndMax %d", c.cold, point)
	}
	// The peer's ACKs, delivered as segment arrivals: each pushes out
	// what the window allows, as a wire arrival does.
	ack := func(seq uint32) {
		c.input(TCPHeader{Flags: TCPAck, Seq: c.rcvNxt, Ack: seq, Window: uint16(c.sndWnd >> c.sndWScale)}, nil)
	}
	dupAcks := func(what string, want bool) {
		t.Helper()
		before := e.stkA.Stats().DupAcks
		for range 3 {
			ack(c.sndUna)
		}
		if got := e.stkA.Stats().DupAcks - before; got != 3 {
			t.Fatalf("%s: %d duplicate ACKs counted, want 3", what, got)
		}
		if c.inRecovery() != want {
			t.Fatalf("%s: three duplicate ACKs at %d (recovery point %d) left inRecovery %v, want %v", what, c.sndUna, point, c.inRecovery(), want)
		}
	}
	dupAcks("below the point", false)
	ack(c.sndUna + MaxSegData) // a partial ACK, still below the point
	dupAcks("after a partial ACK", false)
	ack(point) // everything the timeout saw in flight, but not past it
	if n, errno := e.stkA.Write(cfd, make([]byte, 8*MaxSegData)); n != 8*MaxSegData || errno != hostos.OK {
		t.Fatal(n, errno)
	}
	e.stkA.PollOnce()
	if !seqGT(c.sndMax, point+MaxSegData) {
		t.Fatalf("no new data went out past the point (sndMax %d, point %d)", c.sndMax, point)
	}
	dupAcks("at the point", false)
	ack(point + MaxSegData) // past the point: the mark clears
	if c.cold.rtoRecover {
		t.Fatal("an ACK past the recovery point left it marked as a timeout's")
	}
	dupAcks("past the point", true)
}

// TestSACKBlocksOutsideTheWindowAreIgnored: the sender's scoreboard
// takes SACK blocks that end inside (sndUna, sndMax] only. After an ACK
// with one such block, an ACK whose blocks lie above sndMax, below
// sndUna and inverted leaves the scoreboard as it was, and nothing is
// retransmitted.
func TestSACKBlocksOutsideTheWindowAreIgnored(t *testing.T) {
	const m = MaxSegData
	s := newScript(t)
	s.stk.SetTCPTuning(TCPTuning{SACK: true})
	fd := -1
	lines := append(s.opened(&fd, 0), line{at: 2e6, call: func() {
		if n, errno := s.stk.Write(fd, make([]byte, 4*m)); n != 4*m || errno != hostos.OK {
			t.Fatal(n, errno)
		}
	}})
	for i, flags := range []uint8{TCPAck, TCPAck, TCPAck, TCPPsh | TCPAck} {
		lines = append(lines, line{at: 3e6, out: &pkt{flags: flags, seq: 1 + uint32(i)*m, ack: 1, n: m, win: maxRcvWnd}})
	}
	s.run(append(lines, line{at: 3e6, in: &pkt{flags: TCPAck, seq: 1, ack: 1 + m, win: 65535, sack: []SACKBlock{{1 + 2*m, 1 + 3*m}}}})...)
	s.until(3e6)
	c := s.stk.sockOf(fd).conn
	want := slices.Clone(c.sacked())
	if len(want) != 1 {
		t.Fatalf("scoreboard %v after one block inside the window", want)
	}
	s.run(line{at: 4e6, in: &pkt{flags: TCPAck, seq: 1, ack: 1 + m, win: 65535, sack: []SACKBlock{
		{1 + 4*m + 100, 1 + 4*m + 200}, // above sndMax
		{1, 101},                       // below sndUna
		{1 + 3*m + 100, 1 + 3*m},       // inverted
	}}})
	s.until(50e6)
	if got := c.sacked(); !slices.Equal(got, want) {
		t.Fatalf("scoreboard %v after blocks outside the window, want %v", got, want)
	}
	if n := len(s.w.segs(0)); s.stk.Stats().Retransmit != 0 || n != 5 {
		t.Fatalf("%d retransmits, %d segments sent; want none past the SYN|ACK and the four", s.stk.Stats().Retransmit, n)
	}
}

// TestResentSynAckIsNotADuplicateAck: on a long path the listener's SYN
// cache resends its SYN|ACK before the client's ACK can reach it, so an
// ESTABLISHED client that has sent data receives SYN|ACKs that echo
// sndUna with the window unchanged. A SYN (or FIN) is not a duplicate ACK
// (RFC 5681 §2 (c)): the client counts none.
func TestResentSynAckIsNotADuplicateAck(t *testing.T) {
	s := newScript(t)
	fd := -1
	synAck := &pkt{flags: TCPSyn | TCPAck, ack: 1, win: 65535, mss: MSSDefault}
	lines := []line{
		{call: func() { fd = dial(t, s.stk, IPv4Addr{}, rigPeerIP, scriptPort) }},
		{at: 1e6, out: &pkt{flags: TCPSyn, win: maxRcvWnd, mss: MSSDefault}},
		{at: 1e6, in: synAck},
		{at: 2e6, out: &pkt{flags: TCPAck, seq: 1, ack: 1, win: maxRcvWnd}},
		{at: 2e6, call: func() {
			if n, errno := s.stk.Write(fd, make([]byte, 4*MaxSegData)); n != 4*MaxSegData || errno != hostos.OK {
				t.Fatal(n, errno)
			}
		}},
	}
	for i, flags := range []uint8{TCPAck, TCPAck, TCPAck, TCPPsh | TCPAck} {
		lines = append(lines, line{at: 3e6, out: &pkt{flags: flags, seq: 1 + uint32(i)*MaxSegData, ack: 1, n: MaxSegData, win: maxRcvWnd}})
	}
	s.run(append(lines,
		line{at: 10e6, in: synAck}, // the SYN cache's resends
		line{at: 30e6, in: synAck},
		line{at: 40e6, in: &pkt{flags: TCPAck, seq: 1, ack: 1 + 4*MaxSegData, win: 65535}},
	)...)
	s.until(41e6)
	if c := s.stk.sockOf(fd).conn; c.inflight() != 0 || s.stk.Stats().DupAcks != 0 {
		t.Fatalf("%d bytes in flight; the client counted %d duplicate ACKs from two resent SYN|ACKs", c.inflight(), s.stk.Stats().DupAcks)
	}
}

package fstack

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/sim"
)

// hookWire is a test conduit: a transparent cable whose per-direction
// hook may drop or delay each frame. It stands in for nic.Connect so
// recovery tests can lose exactly the segment they mean to. A hook reads
// the bytes but never the checksum field, and edits nothing, so a frame
// keeps the checksum its sender left pending.
type hookWire struct {
	ends [2]*nic.Port
	// hook returns (extraDelayNS, drop). nil passes through.
	hook func(from int, data []byte, readyAt int64) (int64, bool)
}

func connectHooked(a, b *nic.Port, hook func(from int, data []byte, readyAt int64) (int64, bool)) *hookWire {
	w := &hookWire{ends: [2]*nic.Port{a, b}, hook: hook}
	a.Attach(w, 0)
	b.Attach(w, 1)
	return w
}

func (w *hookWire) Carry(from int, data []byte, readyAt int64, sum nic.PendingSum) {
	if w.hook != nil {
		extra, drop := w.hook(from, data, readyAt)
		if drop {
			return
		}
		readyAt += extra
	}
	w.ends[1-from].DeliverPending(data, readyAt, sum)
}

func (w *hookWire) Pump(int64) {}

// NextDeadline implements nic.Conduit: the hook delays frames via
// readyAt, so held work already shows up as far-FIFO deadlines.
func (w *hookWire) NextDeadline(int, int64) int64 { return math.MaxInt64 }

// newHookedEnv is newEnv with a hookWire instead of a plain cable.
func newHookedEnv(t *testing.T, hook func(from int, data []byte, readyAt int64) (int64, bool)) *testEnv {
	t.Helper()
	clk := sim.NewVClock()
	stkA, cardA := buildMachine(t, clk, "0000:03:00", 1, IP4(10, 0, 0, 1), false)
	stkB, cardB := buildMachine(t, clk, "0000:04:00", 2, IP4(10, 0, 0, 2), false)
	connectHooked(cardA.Port(0), cardB.Port(0), hook)
	return &testEnv{t: t, clk: clk, stkA: stkA, stkB: stkB}
}

// wireSeg parses a wire frame as an IPv4 TCP segment, returning its IP
// and TCP headers and its payload length; ok is false for anything
// else. A hook sees the checksum its sender left pending, so it is not
// verified.
func wireSeg(frame []byte) (ip IPv4Header, h TCPHeader, payloadLen int, ok bool) {
	eth, err := ParseEthHeader(frame)
	if err != nil || eth.Type != EtherTypeIPv4 {
		return ip, h, 0, false
	}
	ip, ihl, err := ParseIPv4Header(frame[EthHeaderLen:])
	if err != nil || ip.Proto != ProtoTCP {
		return ip, h, 0, false
	}
	seg := frame[EthHeaderLen+ihl : EthHeaderLen+int(ip.TotalLen)]
	h, hl, err := parseTCPHeader(seg, ip.Src, ip.Dst, nil, true)
	if err != nil {
		return ip, h, 0, false
	}
	return ip, h, len(seg) - hl, true
}

// isDataFrame filters for TCP segments with a real payload (the
// handshake, ACKs and ARP stay under ~90 bytes on this stack).
func isDataFrame(data []byte) bool { return len(data) > 200 }

// sendAll pushes payload through cfd, draining afd, until the receiver
// holds everything; returns the received bytes.
func sendAll(e *testEnv, cfd, afd int, payload []byte, maxTicks int) []byte {
	e.t.Helper()
	var got []byte
	sent := 0
	buf := make([]byte, 65536)
	e.pumpUntil(maxTicks, "transfer completes", func() bool {
		for sent < len(payload) {
			n, errno := e.stkA.Write(cfd, payload[sent:min(sent+16384, len(payload))])
			if errno != hostos.OK {
				break
			}
			sent += n
		}
		for {
			n, errno := e.stkB.Read(afd, buf)
			if errno != hostos.OK || n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		return len(got) == len(payload)
	})
	return got
}

// TestFastRetransmitOnThreeDupAcks drops exactly one data segment;
// recovery must complete via the dup-ACK fast path, without an RTO.
func TestFastRetransmitOnThreeDupAcks(t *testing.T) {
	dataSeen, dropped := 0, false
	e := newHookedEnv(t, func(from int, data []byte, _ int64) (int64, bool) {
		if from != 0 || !isDataFrame(data) {
			return 0, false
		}
		dataSeen++
		if dataSeen == 5 && !dropped {
			dropped = true
			return 0, true
		}
		return 0, false
	})
	cfd, afd := e.connectPair(5001)
	payload := bytes.Repeat([]byte{0xA5}, 128*1024)
	got := sendAll(e, cfd, afd, payload, 60000)
	if !bytes.Equal(got, payload) {
		t.Fatal("stream corrupted across fast retransmit")
	}
	if !dropped {
		t.Fatal("the drop hook never fired — test is vacuous")
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
	blackhole := false
	var attempts []int64
	e := newHookedEnv(t, func(from int, data []byte, readyAt int64) (int64, bool) {
		if from == 0 && isDataFrame(data) && blackhole {
			attempts = append(attempts, readyAt)
			return 0, true
		}
		return 0, false
	})
	cfd, afd := e.connectPair(5001)
	// Warm the RTT estimator so rto sits at the floor before the loss.
	warm := bytes.Repeat([]byte{1}, 8192)
	if got := sendAll(e, cfd, afd, warm, 20000); len(got) != len(warm) {
		t.Fatal("warmup transfer failed")
	}
	blackhole = true
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
			var finAt []int64 // when each of A's FINs left
			var finSeqs []uint32
			droppedFIN, droppedLast := false, false
			e := newHookedEnv(t, func(from int, data []byte, readyAt int64) (int64, bool) {
				_, h, n, ok := wireSeg(data)
				if from != 0 || !ok {
					return 0, false
				}
				switch {
				case h.Flags&TCPFin != 0:
					finAt = append(finAt, readyAt)
					finSeqs = append(finSeqs, h.Seq)
					if !droppedFIN {
						droppedFIN = true
						return 0, true
					}
				case tc.dropLast && !droppedLast && n > 0 && h.Seq+uint32(n) == finSeq:
					droppedLast = true
					return 0, true
				}
				return 0, false
			})
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
			if !droppedFIN || droppedLast != tc.dropLast {
				t.Fatalf("drops: FIN %v, last segment %v — the hook missed its segment", droppedFIN, droppedLast)
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
	e := newHookedEnv(t, func(from int, data []byte, readyAt int64) (int64, bool) {
		if from == 1 && readyAt < stallUntil {
			// Hold the receiver's ACKs back to the end of the stall.
			return stallUntil - readyAt, false
		}
		return 0, false
	})
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
	clk := sim.NewVClock()
	stkA, cardA := buildMachine(t, clk, "0000:03:00", 1, IP4(10, 0, 0, 1), false)
	stkB, cardB := buildMachine(t, clk, "0000:04:00", 2, IP4(10, 0, 0, 2), false)
	cfg := netem.Config{Seed: 11, LossRate: 0.02}
	netem.ConnectAsym(clk, cardA.Port(0), cardB.Port(0), cfg, cfg)
	tune := TCPTuning{SACK: true, WindowScale: 4, SndBufBytes: 1 << 20, RcvBufBytes: 1 << 20}
	stkA.SetTCPTuning(tune)
	stkB.SetTCPTuning(tune)
	e := &testEnv{t: t, clk: clk, stkA: stkA, stkB: stkB}
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
		case !seqLT(r.start, r.end) || r.segs == 0:
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
// drain. It keeps the stack's arrival budget; the window check alone
// bounds its parked bytes. buf models the receive ring (bytes
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
	if len(r.ooo) >= max(oooMaxSegs, r.size/MaxSegData) {
		r.refused++
		return
	}
	if seqGT(seq+uint32(len(payload)), r.rcvNxt+uint32(r.free())) {
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
			[]SACKBlock{{100, 300}}, oooRun{start: 100, end: 350, segs: 3}},
		{"short segment resent longer", []seqRange{{100, 150}}, seqRange{100, 200},
			[]SACKBlock{{100, 150}}, oooRun{start: 100, end: 200, segs: 2}},
		{"across a hole and a run", []seqRange{{100, 200}, {250, 300}}, seqRange{150, 350},
			[]SACKBlock{{100, 300}}, oooRun{start: 100, end: 350, segs: 3}},
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
	// Segment budget: one-byte arrivals, each its own run.
	c = bareReceiver(t, 64<<10, 0)
	for i := 0; i <= c.oooSegCap(); i++ {
		c.oooInsert(uint32(10+2*i), seg[:1])
	}
	if c.stk.stats.ReassDrops != 1 || len(c.rcvOOO()) != c.oooSegCap() {
		t.Fatalf("over the segment budget: %d drops, %d runs", c.stk.stats.ReassDrops, len(c.rcvOOO()))
	}
	var sum StackStats
	sum.Add(c.stk.stats)
	sum.Add(StackStats{ReassDrops: 4})
	if sum.ReassDrops != 5 {
		t.Fatalf("StackStats.Add carried %d reassembly drops, want 5", sum.ReassDrops)
	}
	// The counter reaches the reports — and only when it has something
	// to say, so a run that dropped nothing prints as it always did.
	if got := sum.RecoverySummary(); !strings.HasSuffix(got, ", reass-drops 5") {
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
// application reading in between, the arrival budget, lazy and eager rings —
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
			steps = 400 // enough small arrivals to run into the segment budget
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
// exhaust the arrival budget, so holding more never costs an accept.
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

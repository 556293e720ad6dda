package fstack

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/sim"
)

// hookWire is a test conduit: a transparent cable whose per-direction
// hook may drop or delay each frame. It stands in for nic.Connect so
// recovery tests can lose exactly the segment they mean to.
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

func (w *hookWire) Send(from int, data []byte, readyAt int64) {
	if w.hook != nil {
		extra, drop := w.hook(from, data, readyAt)
		if drop {
			return
		}
		readyAt += extra
	}
	w.ends[1-from].DeliverFrame(data, readyAt)
}

func (w *hookWire) Pump(int64) {}

// NextDeadline implements nic.Conduit: the hook delays frames via
// readyAt, so held work already shows up as far-FIFO deadlines.
func (w *hookWire) NextDeadline(int64) int64 { return math.MaxInt64 }

// newHookedEnv is newEnv with a hookWire instead of a plain cable.
func newHookedEnv(t *testing.T, hook func(from int, data []byte, readyAt int64) (int64, bool)) *testEnv {
	t.Helper()
	clk := sim.NewVClock()
	stkA, cardA := buildMachine(t, clk, "0000:03:00", 1, IP4(10, 0, 0, 1), false)
	stkB, cardB := buildMachine(t, clk, "0000:04:00", 2, IP4(10, 0, 0, 2), false)
	connectHooked(cardA.Port(0), cardB.Port(0), hook)
	return &testEnv{t: t, clk: clk, stkA: stkA, stkB: stkB}
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
	e.stkA.Lock()
	st := e.stkA.Stats()
	e.stkA.Unlock()
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
	e.stkA.Lock()
	st := e.stkA.Stats()
	e.stkA.Unlock()
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
	netem.Connect(clk, cardA.Port(0), cardB.Port(0), netem.Config{Seed: 11, LossRate: 0.02})
	tune := TCPTuning{SACK: true, WindowScale: 4, SndBufBytes: 1 << 20, RcvBufBytes: 1 << 20}
	stkA.SetTCPTuning(tune)
	stkB.SetTCPTuning(tune)
	e := &testEnv{t: t, clk: clk, stkA: stkA, stkB: stkB}
	cfd, afd := e.connectPair(5001)

	e.stkA.Lock()
	conn := e.stkA.socks[cfd].conn
	e.stkA.Unlock()
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
	e.stkA.Lock()
	st := e.stkA.Stats()
	e.stkA.Unlock()
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
	e.stkA.Lock()
	conn := e.stkA.socks[cfd].conn
	sackOK, sndWS, rcvWS := conn.sackOK, conn.sndWScale, conn.rcvWScale
	e.stkA.Unlock()
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
	e.stkB.Lock()
	conn := e.stkB.socks[afd].conn
	conn.sackOK = true
	e.stkB.Unlock()

	f := func(offsets []uint16, sizes []uint8) bool {
		e.stkB.Lock()
		defer e.stkB.Unlock()
		conn.rcvOOO = nil
		for i, off := range offsets {
			size := 1
			if i < len(sizes) {
				size = int(sizes[i])%2048 + 1
			}
			seq := conn.rcvNxt + 1 + uint32(off) // never at rcvNxt: always a hole
			payload := make([]byte, size)
			conn.oooInsert(seq, payload)
			conn.lastOOO = seqRange{start: seq, end: seq + uint32(len(payload))}
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
			for _, s := range conn.rcvOOO {
				end := s.seq + uint32(len(s.data))
				if seqLE(s.seq, conn.lastOOO.start) && seqLT(conn.lastOOO.start, end) {
					if !(seqLE(blocks[0].Start, conn.lastOOO.start) && seqLT(conn.lastOOO.start, blocks[0].End)) {
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

// refSACKBlocks is the two-slice construction sackBlocks used to be:
// coalesce every run, find the one holding the latest arrival, emit it
// first and the rest in sequence order. The single-pass version must
// agree with it block for block.
func refSACKBlocks(c *tcpConn) []SACKBlock {
	if len(c.rcvOOO) == 0 {
		return nil
	}
	var runs []SACKBlock
	for _, s := range c.rcvOOO {
		end := s.seq + uint32(len(s.data))
		if n := len(runs); n > 0 && runs[n-1].End == s.seq {
			runs[n-1].End = end
		} else {
			runs = append(runs, SACKBlock{Start: s.seq, End: end})
		}
	}
	first := 0
	for i, r := range runs {
		if seqLE(r.Start, c.lastOOO.start) && seqLT(c.lastOOO.start, r.End) {
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

func TestSACKBlocksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := &tcpConn{stk: &Stack{}}
	for iter := 0; iter < 5000; iter++ {
		// A sorted, non-overlapping queue of 1..12 segments starting near
		// the sequence wrap, neighbours contiguous about half the time,
		// so run counts cover 1 to well past MaxSACKBlocks.
		c.rcvOOO = c.rcvOOO[:0]
		seq := uint32(0xFFFFF000) + uint32(rng.Intn(0x2000))
		for n := 1 + rng.Intn(12); n > 0; n-- {
			if rng.Intn(2) == 0 {
				seq += 1 + uint32(rng.Intn(3000))
			}
			size := 1 + rng.Intn(1448)
			c.rcvOOO = append(c.rcvOOO, oooSeg{seq: seq, data: make([]byte, size)})
			seq += uint32(size)
		}
		// The latest arrival: usually one of the queued segments (any
		// position), sometimes a range the queue no longer holds.
		s := c.rcvOOO[rng.Intn(len(c.rcvOOO))]
		c.lastOOO = seqRange{start: s.seq, end: s.seq + uint32(len(s.data))}
		if rng.Intn(8) == 0 {
			c.lastOOO.start -= 1 + uint32(rng.Intn(5000))
		}
		got, want := c.sackBlocks(), refSACKBlocks(c)
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d (%d segments, lastOOO %v):\n got %v\nwant %v", iter, len(c.rcvOOO), c.lastOOO, got, want)
		}
	}
}

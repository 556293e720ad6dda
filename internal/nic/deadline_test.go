package nic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// refDeadline is Port.NextDeadline as it was while the port answered for
// all its queues at once, kept as the reference QueueDeadline is held to.
// only < 0 is that port-wide answer; only = q counts just queue q's own
// FIFO head and pending TX, beside the two terms no queue owns (the
// conduit's releases toward this port and the arbiter poll cap).
func refDeadline(p *Port, now int64, only int) int64 {
	pipe, end, nq := p.pipe, p.pipeEnd, p.nq
	rxEn := p.regs.rctl&RctlEN != 0
	txEn := p.regs.tctl&TctlEN != 0 && pipe != nil
	var rxArmed [MaxQueues]bool
	txPending, rxPolls := false, false
	for q := 0; q < nq; q++ {
		armed := rxEn && p.regs.rxq[q].length >= DescSize && !p.stalled[q]
		if armed && p.regs.rxq[q].head != p.regs.rxq[q].tail {
			rxPolls = true
		}
		if only >= 0 && q != only {
			continue
		}
		rxArmed[q] = armed
		if txEn && p.regs.txq[q].length >= DescSize && !p.stalled[q] &&
			p.regs.txq[q].head != p.regs.txq[q].tail {
			txPending = true
		}
	}

	busAt := p.card.busNextAdmitAt(p.idx, now)
	d := int64(math.MaxInt64)
	for q := 0; q < nq; q++ {
		if !rxArmed[q] {
			continue
		}
		at := p.fifos[q].headAt()
		if at <= now && busAt > now {
			at = busAt
		}
		if at < d {
			d = at
		}
	}
	if txPending {
		at := p.line.AdmitAt(now, bookWindow)
		if busAt > at {
			at = busAt
		}
		if at < d {
			d = at
		}
	}
	if pipe != nil {
		if at := pipe.NextDeadline(end, now); at < d {
			d = at
		}
	}
	if rxPolls {
		if by := p.card.busPollBy(p.idx); by < d {
			d = by
		}
	}
	return d
}

// stubConduit holds nothing and answers each end's deadline from a
// table, so a port that asked for the wrong end reads the wrong value.
type stubConduit struct{ at [2]int64 }

func (c *stubConduit) Send(int, []byte, int64) {}
func (c *stubConduit) Pump(int64)              {}
func (c *stubConduit) NextDeadline(to int, _ int64) int64 {
	return c.at[to]
}

// TestQueueDeadlinesMinIsThePortDeadline walks one port of an ideal and
// of a bus-limited card through random register, FIFO, stall, enable,
// serializer, arbiter and conduit states and requires after every move
// that each queue's deadline is the old answer restricted to that queue,
// that the earliest of them — and Port.NextDeadline — is the old
// port-wide answer, and that no query touches the arbiter.
func TestQueueDeadlinesMinIsThePortDeadline(t *testing.T) {
	const nq = 4
	for _, busRate := range []float64{0, 1.2e9} {
		t.Run(fmt.Sprintf("bus=%g", busRate), func(t *testing.T) {
			c, clk := rxCard(t, busRate)
			p := c.Port(0)
			pipe := &stubConduit{at: [2]int64{math.MaxInt64, math.MaxInt64}}
			p.Attach(pipe, 1)
			rng := rand.New(rand.NewSource(41))
			narrowed := 0
			for step := 0; step < 20000; step++ {
				q, now := rng.Intn(nq), clk.Now()
				switch rng.Intn(11) {
				case 0:
					p.fifos[q].push(frame{data: make([]byte, 100), readyAt: now + int64(rng.Intn(60_000)) - 30_000})
				case 1:
					p.fifos[q].pop(now)
				case 2: // program, unprogram, fill or free an RX ring
					p.RegWrite32(RegRDLENQ(q), uint32(rng.Intn(2))*64*DescSize)
					p.RegWrite32(RegRDHQ(q), uint32(rng.Intn(3)))
					p.RegWrite32(RegRDTQ(q), uint32(rng.Intn(3)))
				case 3: // the same for a TX ring
					p.RegWrite32(RegTDLENQ(q), uint32(rng.Intn(2))*64*DescSize)
					p.RegWrite32(RegTDHQ(q), uint32(rng.Intn(3)))
					p.RegWrite32(RegTDTQ(q), uint32(rng.Intn(3)))
				case 4:
					p.SetQueueStall(q, !p.QueueStalled(q))
				case 5:
					p.RegWrite32(RegRCTL, uint32(min(rng.Intn(5), 1))*RctlEN)
					p.RegWrite32(RegTCTL, uint32(min(rng.Intn(5), 1))*TctlEN)
				case 6:
					if p.line.Admits(now, bookWindow) {
						p.line.Book(now, sim.BytesNS(1538, c.cfg.LineRateBps))
					}
				case 7:
					if c.busCanAdmit(0, now) { // polls the arbiter, then books the share
						c.busBook(0, now, 1538)
					}
				case 8:
					c.busCanAdmit(rng.Intn(2), now) // either port polls
				case 9:
					pipe.at[rng.Intn(2)] = now + int64(rng.Intn(200_000))
					if rng.Intn(3) == 0 {
						pipe.at = [2]int64{math.MaxInt64, math.MaxInt64}
					}
				case 10:
					clk.Advance(int64(rng.Intn(40_000)))
				}
				now = clk.Now()
				before := arbiterRecord(c)
				want := refDeadline(p, now, -1)
				if got := p.NextDeadline(now); got != want {
					t.Fatalf("step %d: port deadline %d, reference %d", step, got, want)
				}
				earliest := int64(math.MaxInt64)
				for q := 0; q < MaxQueues; q++ {
					got := p.QueueDeadline(q, now)
					if ref := refDeadline(p, now, q); got != ref {
						t.Fatalf("step %d: queue %d deadline %d, the reference restricted to it says %d (port-wide %d)", step, q, got, ref, want)
					}
					if got > want {
						narrowed++
					}
					earliest = min(earliest, got)
				}
				if earliest != want {
					t.Fatalf("step %d: earliest queue deadline %d, port-wide reference %d", step, earliest, want)
				}
				if after := arbiterRecord(c); after != before {
					t.Fatalf("step %d: a deadline query changed the arbiter's record: %s -> %s", step, before, after)
				}
			}
			if narrowed < 1000 {
				t.Fatalf("only %d queue answers were later than the port's; the script narrowed nothing", narrowed)
			}
		})
	}
}

// TestStalledQueueLeavesSiblingsTheirDeadlines: each queue answers for
// its own FIFO head, a stalled one for nothing — and every one of them,
// stalled or not, for a frame the conduit holds toward this port's end.
func TestStalledQueueLeavesSiblingsTheirDeadlines(t *testing.T) {
	c, clk := rxCard(t, 0)
	p := c.Port(0)
	for q := 1; q < 3; q++ {
		p.RegWrite32(RegRDLENQ(q), 64*DescSize)
		p.RegWrite32(RegRDTQ(q), 63)
	}
	now := clk.Now()
	heads := [3]int64{now + 7_000, now + 3_000, now + 9_000}
	for q, at := range heads {
		p.fifos[q].push(frame{data: make([]byte, 100), readyAt: at})
	}
	p.SetQueueStall(1, true)
	for q, want := range [3]int64{heads[0], math.MaxInt64, heads[2]} {
		if d := p.QueueDeadline(q, now); d != want {
			t.Fatalf("queue %d (queue 1 stalled): deadline %d, want %d", q, d, want)
		}
	}
	if d := p.NextDeadline(now); d != heads[0] {
		t.Fatalf("port deadline %d, want queue 0's head %d", d, heads[0])
	}
	pipe := &stubConduit{at: [2]int64{now + 1_000, now + 2_000}}
	p.Attach(pipe, 1)
	for q := 0; q < 3; q++ {
		if d := p.QueueDeadline(q, now); d != pipe.at[1] {
			t.Fatalf("queue %d: deadline %d, want the conduit's release toward end 1 at %d", q, d, pipe.at[1])
		}
	}
}

package nic

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cheri"
	"repro/internal/sim"
)

// refStep is Step without its idle short-circuits — the device step as
// it was before them, kept here as the reference: every armed queue
// enters stepTX/stepRX with its ring exactly as the registers hold it,
// whether or not anything can move. Step must leave a port (and its
// peer, its card's arbiter and host memory) in the identical state.
func refStep(p *Port) {
	var tx, rx [MaxQueues]ring
	raw := func(qr *queueRegs) ring {
		return ring{base: uint64(qr.bal) | uint64(qr.bah)<<32, n: qr.length / DescSize, head: qr.head, tail: qr.tail}
	}
	pipe := p.pipe
	for q := range tx {
		if p.stalled[q] {
			continue
		}
		if p.regs.tctl&TctlEN != 0 && pipe != nil {
			tx[q] = raw(&p.regs.txq[q])
		}
		if p.regs.rctl&RctlEN != 0 {
			rx[q] = raw(&p.regs.rxq[q])
		}
	}
	now := p.clk.Now()
	if pipe != nil {
		pipe.Pump(now)
	}
	for q := range tx {
		if tx[q].n > 0 {
			p.stepTX(q, tx[q], now)
		}
	}
	for q := range rx {
		if rx[q].n > 0 {
			p.stepRX(q, rx[q], now)
		}
	}
}

// deviceState renders everything a device step may touch: registers,
// statistics, FIFO contents and counters, line and bus serializer
// bookings, the arbiter's activity record, and a hash of host memory —
// the descriptor rings always, the packet buffers too when full is set
// (they are 99 % of the bytes, so the traffic test samples them).
func deviceState(t *testing.T, be *bench, full bool) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range []*Port{be.a, be.b} {
		fmt.Fprintf(&sb, "%s regs=%v stats=%d/%d/%d/%d stalled=%v dmaFaults=%d/%d\n",
			p.bdf, p.regs, p.gprc, p.gptc, p.gorc, p.gotc, p.stalled, p.dmaFaults, p.dmaFaulted)
		for q := range p.fifos {
			f := &p.fifos[q]
			fmt.Fprintf(&sb, " fifo%d bytes=%d missed=%d headAt=%d:", q, f.bytes, f.missed, f.headAt())
			for _, fr := range f.frames[f.head:] {
				fmt.Fprintf(&sb, " %d@%d", len(fr.data), fr.readyAt)
			}
			sb.WriteByte('\n')
		}
		// AdmitAt(-inf) is busyUntil - window: the booking itself.
		fmt.Fprintf(&sb, " line=%d", p.line.AdmitAt(math.MinInt64, bookWindow))
		c := p.card
		fmt.Fprintf(&sb, " busUse=%v busAct=%d", c.busUse, c.busAct)
		for i := range c.busShare {
			fmt.Fprintf(&sb, " share=%d", c.busShare[i].AdmitAt(math.MinInt64, bookWindow))
		}
		sb.WriteByte('\n')
	}
	h := fnv.New64a()
	for _, r := range []ringLayout{be.atx, be.arx, be.btx, be.brx} {
		n := uint64(r.n) * DescSize
		if full {
			n += uint64(r.n) * r.bufSize // the buffers follow their ring
		}
		region, err := be.mem.RawSlice(r.descBase, int(n))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(region)
	}
	fmt.Fprintf(&sb, "mem=%x", h.Sum64())
	return sb.String()
}

// TestIdleStepIsANoOp is the table of states in which Step now declines
// to enter a queue. In each, on an ideal and on a bus-limited card, Step
// and the reference step must produce the same state — which for all
// but one row is the state they started from. The exception is the
// proof obligation DESIGN.md §8 carves out: on a bus-limited card an RX
// ring with free descriptors polls the fair-share arbiter on every step
// even when no frame has arrived, and Step must keep doing so.
func TestIdleStepIsANoOp(t *testing.T) {
	frame := make([]byte, 200)
	cases := []struct {
		name    string
		prepare func(be *bench)
		// polls: the step touches the arbiter of a bus-limited card.
		polls bool
	}{
		{"empty TX ring, empty FIFO", func(be *bench) {}, true},
		{"full RX ring, frame waiting", func(be *bench) {
			be.b.RegWrite32(RegRDTQ(0), be.b.RegRead32(RegRDHQ(0))) // head == tail: no free descriptor
			be.b.DeliverFrame(append([]byte(nil), frame...), be.clk.Now()-1)
		}, false},
		{"FIFO head not yet due", func(be *bench) {
			be.b.DeliverFrame(append([]byte(nil), frame...), be.clk.Now()+50_000)
		}, true},
		{"later frame due before the head", func(be *bench) {
			// Strict FIFO: an undue head blocks a due successor.
			be.b.DeliverFrame(append([]byte(nil), frame...), be.clk.Now()+50_000)
			be.b.DeliverFrame(append([]byte(nil), frame...), be.clk.Now()-1)
		}, true},
		{"stalled queue, frame waiting, TX pending", func(be *bench) {
			be.b.SetQueueStall(0, true)
			be.b.DeliverFrame(append([]byte(nil), frame...), be.clk.Now()-1)
			be.queueTX(t, be.b, be.btx, frame)
		}, false},
		{"RX and TX disabled, work pending", func(be *bench) {
			be.b.RegWrite32(RegRCTL, 0)
			be.b.RegWrite32(RegTCTL, 0)
			be.b.DeliverFrame(append([]byte(nil), frame...), be.clk.Now()-1)
			be.queueTX(t, be.b, be.btx, frame)
		}, false},
	}
	for _, busRate := range []float64{0, 1.66e9} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/bus=%g", tc.name, busRate), func(t *testing.T) {
				got, ref := newBench(t, busRate), newBench(t, busRate)
				for _, be := range []*bench{got, ref} {
					be.clk.Advance(100_000)
					tc.prepare(be)
				}
				before := deviceState(t, got, true)
				if before != deviceState(t, ref, true) {
					t.Fatal("the two benches differ before stepping")
				}
				for i := 0; i < 3; i++ {
					got.b.Step()
					refStep(ref.b)
					gs, rs := deviceState(t, got, true), deviceState(t, ref, true)
					if gs != rs {
						t.Fatalf("step %d diverges from the reference step:\n got %s\nwant %s", i, gs, rs)
					}
					if busRate > 0 && tc.polls {
						if use := got.b.card.busUse[0]; use != got.clk.Now() {
							t.Fatalf("step %d: bus-limited card's arbiter last polled at %d, want now (%d)", i, use, got.clk.Now())
						}
					} else if gs != before {
						t.Fatalf("step %d changed state:\n got %s\nwant %s", i, gs, before)
					}
					got.clk.Advance(5000)
					ref.clk.Advance(5000)
				}
			})
		}
	}
}

// TestStepMatchesReferenceUnderTraffic runs the same random traffic —
// bursts queued on both ports, irregular clock advances, receivers that
// harvest late so rings fill and FIFOs back up, a queue stall coming and
// going — through Step on one bench and the reference step on another,
// and requires identical device state after every iteration, on an
// ideal and on a bus-limited card.
func TestStepMatchesReferenceUnderTraffic(t *testing.T) {
	for _, busRate := range []float64{0, 1.2e9} {
		t.Run(fmt.Sprintf("bus=%g", busRate), func(t *testing.T) {
			got, ref := newBench(t, busRate), newBench(t, busRate)
			benches := []*bench{got, ref}
			var nextA, nextB [2]uint32
			rng := rand.New(rand.NewSource(21))
			frame := make([]byte, 1514)
			moved := 0
			for iter := 0; iter < 3000; iter++ {
				burst, size := rng.Intn(4), 60+rng.Intn(1455)
				fromA, harvest, stall := rng.Intn(2) == 0, rng.Intn(6) == 0, rng.Intn(200) == 0
				adv := int64(rng.Intn(20_000))
				for i, be := range benches {
					p, r := be.b, be.btx
					if fromA {
						p, r = be.a, be.atx
					}
					for k := 0; k < burst; k++ {
						if (p.RegRead32(RegTDTQ(0))+1)%r.n != p.RegRead32(RegTDHQ(0)) {
							be.queueTX(t, p, r, frame[:size])
						}
					}
					if stall {
						be.b.SetQueueStall(0, !be.b.QueueStalled(0))
					}
					if i == 0 {
						be.a.Step()
						be.b.Step()
					} else {
						refStep(be.a)
						refStep(be.b)
					}
					if harvest {
						moved += len(be.rxHarvest(t, be.a, be.arx, &nextA[i]))
						moved += len(be.rxHarvest(t, be.b, be.brx, &nextB[i]))
					}
					be.clk.Advance(adv)
				}
				full := iter%100 == 99
				if gs, rs := deviceState(t, got, full), deviceState(t, ref, full); gs != rs {
					t.Fatalf("iteration %d diverges from the reference step:\n got %s\nwant %s", iter, gs, rs)
				}
			}
			if moved < 1000 || got.a.Missed()+got.b.Missed() == 0 {
				t.Fatalf("run too tame to mean anything: %d frames harvested, %d tail drops", moved, got.a.Missed()+got.b.Missed())
			}
		})
	}
}

// TestRxFifoQueueDiscipline checks the head-indexed queue against a
// plain slice model over random push/pop interleavings: strict FIFO
// order, byte accounting, tail-drop counting at the byte limit, the
// head-arrival instant, and a backing array that stays bounded when the
// queue never drains.
func TestRxFifoQueueDiscipline(t *testing.T) {
	f := rxFifo{limit: 8000, arena: NewFrameArena()}
	var model []frame
	modelBytes, modelMissed := 0, uint64(0)
	rng := rand.New(rand.NewSource(31))
	now, id := int64(0), 0
	for op := 0; op < 50000; op++ {
		now += int64(rng.Intn(30))
		// Pushes outnumber pops early in each cycle so the queue both
		// fills to its limit and drains to empty.
		if rng.Intn(100) < 30+40*((op/500)%2) {
			fr := frame{data: make([]byte, 60+rng.Intn(1400)), readyAt: now + int64(rng.Intn(100))}
			fr.data[0], fr.data[1] = byte(id), byte(id>>8)
			id++
			if modelBytes+len(fr.data) > f.limit {
				modelMissed++
			} else {
				model = append(model, fr)
				modelBytes += len(fr.data)
			}
			f.push(fr.data, fr.readyAt, fr.sum)
		} else {
			data, readyAt, _, ok := f.pop(now)
			got := frame{data: data, readyAt: readyAt}
			wantOK := len(model) > 0 && model[0].readyAt <= now
			if ok != wantOK {
				t.Fatalf("op %d: pop ok=%v, model says %v", op, ok, wantOK)
			}
			if ok {
				want := model[0]
				model = model[1:]
				modelBytes -= len(want.data)
				if &got.data[0] != &want.data[0] || got.readyAt != want.readyAt {
					t.Fatalf("op %d: popped frame %d, want frame %d", op, int(got.data[0])|int(got.data[1])<<8, int(want.data[0])|int(want.data[1])<<8)
				}
			}
		}
		wantHead := int64(math.MaxInt64)
		if len(model) > 0 {
			wantHead = model[0].readyAt
		}
		if f.pending() != len(model) || f.bytes != modelBytes || f.missed != modelMissed || f.headAt() != wantHead {
			t.Fatalf("op %d: pending %d bytes %d missed %d headAt %d; model %d/%d/%d/%d",
				op, f.pending(), f.bytes, f.missed, f.headAt(), len(model), modelBytes, modelMissed, wantHead)
		}
		// 8000 bytes of >= 60-byte frames is at most 133 live frames.
		if cap(f.frames) > 4*134 {
			t.Fatalf("op %d: backing array grew to %d slots for at most 133 live frames", op, cap(f.frames))
		}
	}
	if modelMissed == 0 || id < 1000 {
		t.Fatalf("run too tame: %d pushes, %d tail drops", id, modelMissed)
	}
}

// rxCard builds one card with two RX-armed ports (64 free descriptors
// each, no conduit) on a shared bus of busRate bits/s (0 = ideal).
func rxCard(t *testing.T, busRate float64) (*Card, *sim.VClock) {
	t.Helper()
	mem := cheri.NewTMem(1 << 22)
	clk := sim.NewVClock()
	c, err := New(Config{
		BDFBase: "0000:03:00", Ports: 2, LineRateBps: 1e9,
		BusRateBps: busRate, BusCostTX: 1.0, BusCostRX: 1.16,
		MAC: [6]byte{2, 0, 0, 0, 0, 1}, Clk: clk, Mem: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0x1000)
	for i := 0; i < c.Ports(); i++ {
		r := ringLayout{descBase: next, n: 64, bufSize: 2048}
		next += uint64(r.n) * DescSize
		r.bufBase = next
		next += uint64(r.n) * r.bufSize
		r.install(t, mem)
		p := c.Port(i)
		p.RegWrite32(RegRDBALQ(0), uint32(r.descBase))
		p.RegWrite32(RegRDLENQ(0), r.n*DescSize)
		p.RegWrite32(RegRDTQ(0), r.n-1)
		p.RegWrite32(RegRCTL, RctlEN)
	}
	return c, clk
}

// arbiterRecord renders the fair-share arbiter's activity state.
func arbiterRecord(c *Card) string {
	return fmt.Sprint(c.busUse, c.busAct)
}

// TestRxDeadlineIsBusAdmission pins the RX arm of Port.NextDeadline on
// a bus-throttled receiver: two ports share the calibrated 1.66 Gbit/s
// bus, port 0's FIFO holds a backlog of frames that have all arrived,
// and a reference driver steps both ports every 5 µs tick. Before every
// step the port is asked for its deadline, which must be the instant
// its bus share re-enters its booking window — not the head frame's
// long-past arrival — must never come after the tick at which the
// reference next writes back an RX descriptor, must stay within half an
// arbiter activity window, and must leave the arbiter's record alone.
func TestRxDeadlineIsBusAdmission(t *testing.T) {
	const tick = 5_000
	c, clk := rxCard(t, 1.66e9)
	p := c.Port(0)
	clk.Advance(100 * tick)
	if d := p.NextDeadline(clk.Now()); d > clk.Now() {
		t.Fatalf("a port that has never polled the arbiter is due at once, not at %d", d)
	}
	for i := 0; i < 40; i++ {
		p.DeliverFrame(make([]byte, maxFrame), clk.Now()-1)
	}
	for i := 0; i < c.Ports(); i++ {
		c.Port(i).Step() // both ports join the arbiter's active set
	}
	var asked []int64 // deadlines answered since the last write-back
	throttled, moved := 0, 0
	for p.PendingRX() > 0 {
		now := clk.Now()
		before := arbiterRecord(c)
		d := p.NextDeadline(now)
		if after := arbiterRecord(c); after != before {
			t.Fatalf("at %d: the deadline query changed the arbiter's record: %s -> %s", now, before, after)
		}
		if limit := now + busActivityWindow/2; d > limit {
			t.Fatalf("at %d: deadline %d is past the arbiter cap %d", now, d, limit)
		}
		if want := c.busNextAdmitAt(0, now); want > now && d != want {
			t.Fatalf("at %d: deadline %d, want the port's bus admission instant %d", now, d, want)
		} else if want <= now && d > now {
			t.Fatalf("at %d: the bus has room and the head has arrived, but the deadline is %d", now, d)
		}
		if d > now {
			throttled++
		}
		asked = append(asked, d)
		head := p.RegRead32(RegRDHQ(0))
		for i := 0; i < c.Ports(); i++ {
			c.Port(i).Step()
		}
		if p.RegRead32(RegRDHQ(0)) != head {
			moved++
			for _, d := range asked {
				if d > now {
					t.Fatalf("the reference wrote back an RX descriptor at %d, before an announced deadline of %d", now, d)
				}
			}
			asked = asked[:0]
		} else if d <= now {
			t.Fatalf("at %d: deadline %d was due, but the step moved nothing", now, d)
		}
		clk.Advance(tick)
	}
	if moved < 20 || throttled < 20 {
		t.Fatalf("run too tame: %d write-back ticks, %d throttled ticks", moved, throttled)
	}

	// Drained and silent: the only deadline left is the arbiter cap,
	// half a window past the port's last poll however many instants are
	// visited without stepping it.
	last := clk.Now() - tick
	for i := 0; i < 3; i++ {
		if d, want := p.NextDeadline(clk.Now()), last+busActivityWindow/2; d != want {
			t.Fatalf("idle port %d ns after its last poll: deadline %d, want %d", clk.Now()-last, d, want)
		}
		clk.Advance(40 * tick)
	}
}

// TestRxDeadlineWithoutArbiterPoll pins where the arbiter cap stops
// applying: a bus-limited port whose Step cannot reach the arbiter — its
// only RX queue stalled, or its ring out of free descriptors — has no
// poll to keep up, so it must not answer with a cap that trails ever
// further behind `now` (the driver would poll its loop at every tick
// and the bed would never leap). The cap returns with the poll.
func TestRxDeadlineWithoutArbiterPoll(t *testing.T) {
	const tick = 5_000
	for _, tc := range []struct {
		name             string
		freeze, unfreeze func(p *Port)
	}{
		{"stalled queue",
			func(p *Port) { p.SetQueueStall(0, true) },
			func(p *Port) { p.SetQueueStall(0, false) }},
		{"no free descriptors",
			func(p *Port) { p.RegWrite32(RegRDTQ(0), p.RegRead32(RegRDHQ(0))) },
			func(p *Port) { p.RegWrite32(RegRDTQ(0), (p.RegRead32(RegRDHQ(0))+63)%64) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, clk := rxCard(t, 1.66e9)
			p := c.Port(0)
			clk.Advance(100 * tick)
			p.Step()
			polled := clk.Now()
			tc.freeze(p)
			for i := 0; i < 400; i++ { // 2 ms: four cap periods
				clk.Advance(tick)
				before := arbiterRecord(c)
				p.Step()
				if after := arbiterRecord(c); after != before {
					t.Fatalf("at %d: the frozen port's Step polled the arbiter: %s -> %s", clk.Now(), before, after)
				}
				if d := p.NextDeadline(clk.Now()); d != math.MaxInt64 {
					t.Fatalf("%d ns after the last arbiter poll: deadline %d (now %d), want none", clk.Now()-polled, d, clk.Now())
				}
			}
			tc.unfreeze(p)
			if d, want := p.NextDeadline(clk.Now()), polled+busActivityWindow/2; d != want {
				t.Fatalf("thawed: deadline %d, want the overdue arbiter poll %d", d, want)
			}
			p.Step()
			if d, want := p.NextDeadline(clk.Now()), clk.Now()+busActivityWindow/2; d != want {
				t.Fatalf("polled again: deadline %d, want %d", d, want)
			}
		})
	}
}

// TestRxDeadlineOnIdealBus pins the other half: without a finite bus
// the RX arm is the head frame's arrival instant, due or not, and there
// is no arbiter cap.
func TestRxDeadlineOnIdealBus(t *testing.T) {
	c, clk := rxCard(t, 0)
	p := c.Port(0)
	clk.Advance(500_000)
	if d := p.NextDeadline(clk.Now()); d != math.MaxInt64 {
		t.Fatalf("empty FIFO: deadline %d, want none", d)
	}
	arrived := clk.Now() - 1_234
	p.DeliverFrame(make([]byte, 200), arrived)
	if d := p.NextDeadline(clk.Now()); d != arrived {
		t.Fatalf("due head: deadline %d, want its arrival instant %d", d, arrived)
	}
	p.Step()
	later := clk.Now() + 50_000
	p.DeliverFrame(make([]byte, 200), later)
	if d := p.NextDeadline(clk.Now()); d != later {
		t.Fatalf("future head: deadline %d, want its arrival instant %d", d, later)
	}
}

// walkAllQueues makes p's next Step or NextDeadline walk all MaxQueues
// register banks, as each did before the port kept a programmed-queue
// count — the reference the bounded walks must match.
func walkAllQueues(p *Port) *Port {
	p.nq = MaxQueues
	return p
}

// TestQueueWalksStopAtTheProgrammedCount drives two identical benches
// through the events that move the programmed-queue count — a queue pair
// programmed after start, its stall, the pair unprogrammed again,
// CTRL.RST and reprogramming — one walking queues [0, nq), the other all
// MaxQueues banks, and requires the same device state and deadlines after
// every step.
func TestQueueWalksStopAtTheProgrammedCount(t *testing.T) {
	const q = 5 // the late queue pair, on port b
	for _, busRate := range []float64{0, 1.2e9} {
		t.Run(fmt.Sprintf("bus=%g", busRate), func(t *testing.T) {
			got, ref := newBench(t, busRate), newBench(t, busRate)
			btxq := ringLayout{descBase: 0x200000, bufBase: 0x201000, n: 64, bufSize: 2048}
			brxq := ringLayout{descBase: 0x300000, bufBase: 0x301000, n: 64, bufSize: 2048}
			// An IPv4/UDP frame, which RSS (once enabled) steers to q.
			ipFrame := make([]byte, 300)
			ipFrame[12], ipFrame[13], ipFrame[14], ipFrame[23] = 0x08, 0x00, 0x45, 17
			plain := make([]byte, 200)

			// each applies op to both benches; walk is identity on the
			// bench under test and walkAllQueues on the reference.
			each := func(op func(i int, be *bench, walk func(*Port) *Port)) {
				op(0, got, func(p *Port) *Port { return p })
				op(1, ref, walkAllQueues)
			}
			queueTXQ := func(be *bench, r ringLayout, payload []byte) {
				tdt := be.b.RegRead32(RegTDTQ(q))
				buf, _ := be.mem.RawSlice(r.bufBase+uint64(tdt)*r.bufSize, len(payload))
				copy(buf, payload)
				d, _ := be.mem.RawSlice(r.descBase+uint64(tdt)*DescSize, DescSize)
				binary.LittleEndian.PutUint64(d[0:8], r.bufBase+uint64(tdt)*r.bufSize)
				binary.LittleEndian.PutUint16(d[8:10], uint16(len(payload)))
				d[11], d[12] = TxCmdEOP|TxCmdRS, 0
				be.b.RegWrite32(RegTDTQ(q), (tdt+1)%r.n)
			}
			var results [2][]string // what each bench reported, step by step
			run := func(label string, steps int) {
				t.Helper()
				for step := 0; step < steps; step++ {
					each(func(i int, be *bench, walk func(*Port) *Port) {
						now := be.clk.Now()
						line := fmt.Sprintf("%s deadlines a=%d b=%d", label, walk(be.a).NextDeadline(now), walk(be.b).NextDeadline(now))
						walk(be.a).Step()
						walk(be.b).Step()
						be.clk.Advance(3000)
						results[i] = append(results[i], line)
					})
					if gs, rs := deviceState(t, got, true), deviceState(t, ref, true); gs != rs {
						t.Fatalf("%s, step %d diverges from the full walk:\n got %s\nwant %s", label, step, gs, rs)
					}
				}
				if !slices.Equal(results[0], results[1]) {
					t.Fatalf("%s: deadlines differ from the full walk:\n got %v\nwant %v", label, results[0], results[1])
				}
			}
			wantNQ := func(label string, a, b int) {
				t.Helper()
				if got.a.nq != a || got.b.nq != b {
					t.Fatalf("%s: programmed counts a=%d b=%d, want %d and %d", label, got.a.nq, got.b.nq, a, b)
				}
			}

			wantNQ("as built", 1, 1)
			each(func(_ int, be *bench, _ func(*Port) *Port) {
				be.queueTX(t, be.a, be.atx, plain)
				be.queueTX(t, be.b, be.btx, plain)
			})
			run("queue 0 only", 20)

			// A queue pair programmed after start, RSS steering IPv4 to it.
			each(func(_ int, be *bench, _ func(*Port) *Port) {
				btxq.install(t, be.mem)
				brxq.install(t, be.mem)
				be.b.RegWrite32(RegTDBALQ(q), uint32(btxq.descBase))
				be.b.RegWrite32(RegTDLENQ(q), btxq.n*DescSize)
				be.b.RegWrite32(RegRDBALQ(q), uint32(brxq.descBase))
				be.b.RegWrite32(RegRDLENQ(q), brxq.n*DescSize)
				be.b.RegWrite32(RegRDTQ(q), brxq.n-1)
				for i := uint64(0); i < RetaEntries; i += 4 {
					be.b.RegWrite32(RegRETA+i, q|q<<8|q<<16|q<<24)
				}
				be.b.RegWrite32(RegMRQC, MRQCEnable|MaxQueues<<MRQCQueueShift)
				for i := 0; i < 3; i++ {
					be.queueTX(t, be.a, be.atx, ipFrame)
					queueTXQ(be, btxq, plain)
				}
			})
			wantNQ("queue 5 programmed", 1, q+1)
			run("late queue", 30)
			if rdh := got.b.RegRead32(RegRDHQ(q)); rdh != 3 || got.b.RegRead32(RegTDHQ(q)) != 3 {
				t.Fatalf("the late queue pair moved %d RX and %d TX descriptors, want 3 and 3", rdh, got.b.RegRead32(RegTDHQ(q)))
			}

			// Stalled: its frames park in the FIFO, its TX ring stands.
			each(func(_ int, be *bench, _ func(*Port) *Port) {
				be.b.SetQueueStall(q, true)
				be.queueTX(t, be.a, be.atx, ipFrame)
				queueTXQ(be, btxq, plain)
			})
			run("late queue stalled", 20)
			if got.b.PendingRXQueue(q) != 1 || got.b.RegRead32(RegTDHQ(q)) != 3 {
				t.Fatal("the stalled queue pair moved")
			}
			each(func(_ int, be *bench, _ func(*Port) *Port) { be.b.SetQueueStall(q, false) })
			run("late queue thawed", 20)

			// Unprogrammed again: the count falls back, RSS still steers
			// frames to the FIFO nobody drains.
			each(func(_ int, be *bench, _ func(*Port) *Port) {
				be.b.RegWrite32(RegTDLENQ(q), 0)
				be.b.RegWrite32(RegRDLENQ(q), 0)
				be.queueTX(t, be.a, be.atx, ipFrame)
			})
			wantNQ("queue 5 unprogrammed", 1, 1)
			run("late queue unprogrammed", 20)
			if got.b.PendingRXQueue(q) != 1 {
				t.Fatal("a frame for the unprogrammed queue should wait in its FIFO")
			}

			// CTRL.RST clears every ring; reprogramming queue 0 brings the
			// port back.
			each(func(_ int, be *bench, _ func(*Port) *Port) { be.b.RegWrite32(RegCTRL, CtrlRST) })
			wantNQ("after reset", 1, 0)
			run("reset", 10)
			each(func(_ int, be *bench, _ func(*Port) *Port) {
				be.brx.install(t, be.mem)
				be.b.RegWrite32(RegTDBALQ(0), uint32(be.btx.descBase))
				be.b.RegWrite32(RegTDLENQ(0), be.btx.n*DescSize)
				be.b.RegWrite32(RegRDBALQ(0), uint32(be.brx.descBase))
				be.b.RegWrite32(RegRDLENQ(0), be.brx.n*DescSize)
				be.b.RegWrite32(RegRDTQ(0), be.brx.n-1)
				be.b.RegWrite32(RegRCTL, RctlEN)
				be.b.RegWrite32(RegTCTL, TctlEN)
				be.queueTX(t, be.a, be.atx, plain)
				be.queueTX(t, be.b, be.btx, plain)
			})
			wantNQ("reprogrammed", 1, 1)
			gprc := got.b.RegRead32(RegGPRC)
			run("reprogrammed", 20)
			if got.b.RegRead32(RegGPRC) != gprc+1 || got.b.RegRead32(RegGPTC) != 1 {
				t.Fatalf("the reprogrammed port received %d and sent %d frames, want 1 and 1",
					got.b.RegRead32(RegGPRC)-gprc, got.b.RegRead32(RegGPTC))
			}
		})
	}
}

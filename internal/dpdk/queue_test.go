package dpdk

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refQueueDev is the adapter fstack used to keep over the device's
// per-queue burst surface, retained here as the reference the Queue
// handle is held to.
type refQueueDev struct {
	dev *EthDev
	q   int
}

func (d refQueueDev) RxBurst(out []*Mbuf) int  { return d.dev.RxBurstQ(d.q, out) }
func (d refQueueDev) TxBurst(bufs []*Mbuf) int { return d.dev.TxBurstQ(d.q, bufs) }
func (d refQueueDev) Poll()                    { d.dev.PollQ(d.q) }
func (d refQueueDev) MAC() [6]byte             { return d.dev.MAC() }

// queueSurface is what both sides of the comparison offer.
type queueSurface interface {
	RxBurst(out []*Mbuf) int
	TxBurst(bufs []*Mbuf) int
	Poll()
	MAC() [6]byte
}

// TestQueueHandleMatchesReferenceAdapter drives EthDev.Queue(q) and the
// reference adapter through one seeded script of bursts on two identical
// 4-queue rigs and requires, after every burst, the same mbufs (address,
// bytes), the same per-queue and device counters, the same pool level
// and the same descriptor-ring state on every queue. The handles'
// deadlines are held to the device-wide answer, EthDev.NextDeadline: the
// earliest of them is that answer after every burst, and a frame the far
// end delivers moves the deadline of the queue RSS steers it to — to its
// arrival instant, unless that queue had earlier work — and no other's.
func TestQueueHandleMatchesReferenceAdapter(t *testing.T) {
	const nq = 4
	ref, got := newRigQueues(t, false, nq), newRigQueues(t, false, nq)
	var refQ [nq]queueSurface
	var gotQ [nq]Queue
	for q := 0; q < nq; q++ {
		refQ[q] = refQueueDev{dev: ref.devA, q: q}
		gotQ[q] = got.devA.Queue(q)
		if refQ[q].MAC() != gotQ[q].MAC() {
			t.Fatalf("queue %d: MAC %v, reference %v", q, gotQ[q].MAC(), refQ[q].MAC())
		}
	}
	sameState := func(step int, what string) {
		t.Helper()
		for q := 0; q < nq; q++ {
			a, b := &ref.devA.rxqs[q], &got.devA.rxqs[q]
			if a.next != b.next || a.tail != b.tail {
				t.Fatalf("step %d (%s): RX queue %d next/tail %d/%d, reference %d/%d",
					step, what, q, b.next, b.tail, a.next, a.tail)
			}
			c, d := &ref.devA.txqs[q], &got.devA.txqs[q]
			if c.next != d.next || c.reclaim != d.reclaim || c.free != d.free {
				t.Fatalf("step %d (%s): TX queue %d next/reclaim/free %d/%d/%d, reference %d/%d/%d",
					step, what, q, d.next, d.reclaim, d.free, c.next, c.reclaim, c.free)
			}
		}
		if a, b := ref.devA.Stats(), got.devA.Stats(); a != b {
			t.Fatalf("step %d (%s): device stats %+v, reference %+v", step, what, b, a)
		}
		if a, b := len(ref.popA.free), len(got.popA.free); a != b {
			t.Fatalf("step %d (%s): pool holds %d, reference %d", step, what, b, a)
		}
		now, earliest := got.clk.Now(), int64(math.MaxInt64)
		for q := 0; q < nq; q++ {
			earliest = min(earliest, gotQ[q].NextDeadline(now))
		}
		if want := got.devA.NextDeadline(now); earliest != want {
			t.Fatalf("step %d (%s): earliest queue deadline %d, device-wide %d", step, what, earliest, want)
		}
	}
	// arrived[q] is the earliest arrival instant of the frames the wire
	// handed queue q since the last reset.
	var arrived [nq]int64
	got.portA.SetRxTap(func(readyAt int64, f []byte) {
		q := got.devA.RxQueueOf([4]byte(f[26:30]), [4]byte(f[30:34]), f[23],
			binary.BigEndian.Uint16(f[34:36]), binary.BigEndian.Uint16(f[36:38]))
		arrived[q] = min(arrived[q], readyAt)
	})

	rng := rand.New(rand.NewSource(19))
	src, dst := [4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 1}
	harvested, woken := 0, 0
	for step := 0; step < 600; step++ {
		q := rng.Intn(nq)
		switch op := rng.Intn(4); op {
		case 0: // the far end sends a few flows; RSS spreads them
			for k := rng.Intn(6); k >= 0; k-- {
				frame := udpFrame(src, dst, uint16(rng.Uint32()), uint16(5301+rng.Intn(8)), 32+rng.Intn(900))
				now := got.clk.Now()
				var before [nq]int64
				for j := range before {
					before[j], arrived[j] = gotQ[j].NextDeadline(now), math.MaxInt64
				}
				for _, r := range []*rig{ref, got} {
					if r.devB.TxBurstQ(0, []*Mbuf{makeFrame(t, r.popB, frame)}) != 1 {
						t.Fatalf("step %d: far end refused a frame", step)
					}
				}
				for j := range before {
					if d, want := gotQ[j].NextDeadline(now), min(before[j], arrived[j]); d != want {
						t.Fatalf("step %d: queue %d deadline %d after the far end's burst, want %d (was %d, its frames arrive at %d)",
							step, j, d, want, before[j], arrived[j])
					}
					if arrived[j] < before[j] {
						woken++
					}
				}
			}
			ref.pump(8)
			got.pump(8)
			sameState(step, "far-end send")
		case 1: // harvest
			var a, b [8]*Mbuf
			want := 1 + rng.Intn(len(a))
			n, m := refQ[q].RxBurst(a[:want]), gotQ[q].RxBurst(b[:want])
			if n != m {
				t.Fatalf("step %d: RxBurst(queue %d) = %d, reference %d", step, q, m, n)
			}
			for i := 0; i < n; i++ {
				ab, _ := a[i].BytesRO()
				bb, _ := b[i].BytesRO()
				if a[i].DataAddr() != b[i].DataAddr() || !bytes.Equal(ab, bb) {
					t.Fatalf("step %d: queue %d mbuf %d differs from the reference's", step, q, i)
				}
				a[i].Free()
				b[i].Free()
			}
			harvested += n
			sameState(step, "rx burst")
		case 2: // transmit
			k := 1 + rng.Intn(4)
			var a, b []*Mbuf
			for i := 0; i < k; i++ {
				frame := udpFrame(dst, src, uint16(rng.Uint32()), 9000, 32+rng.Intn(900))
				a = append(a, makeFrame(t, ref.popA, frame))
				b = append(b, makeFrame(t, got.popA, frame))
			}
			n, m := refQ[q].TxBurst(a), gotQ[q].TxBurst(b)
			if n != m {
				t.Fatalf("step %d: TxBurst(queue %d) = %d, reference %d", step, q, m, n)
			}
			for i := n; i < k; i++ {
				a[i].Free()
				b[i].Free()
			}
			sameState(step, "tx burst")
		case 3:
			refQ[q].Poll()
			gotQ[q].Poll()
			ref.clk.Advance(5000)
			got.clk.Advance(5000)
			sameState(step, "poll")
		}
		// Keep the far end's ring and pool from filling with our output.
		var sink [16]*Mbuf
		for _, r := range []*rig{ref, got} {
			for n := r.devB.RxBurstQ(0, sink[:]); n > 0; n = r.devB.RxBurstQ(0, sink[:]) {
				for _, m := range sink[:n] {
					m.Free()
				}
			}
		}
	}
	if harvested == 0 || woken < 20 {
		t.Fatalf("script harvested %d frames and moved a queue's deadline %d times; the fence checked nothing", harvested, woken)
	}
}

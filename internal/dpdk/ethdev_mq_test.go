package dpdk

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/nic"
)

// udpFrame crafts a minimal Ethernet/IPv4/UDP frame for the classifier
// (checksums are not validated below the stack).
func udpFrame(src, dst [4]byte, sport, dport uint16, payload int) []byte {
	f := make([]byte, 14+20+8+payload)
	binary.BigEndian.PutUint16(f[12:14], 0x0800)
	f[14] = 0x45
	binary.BigEndian.PutUint16(f[16:18], uint16(20+8+payload))
	f[22] = 64 // TTL
	f[23] = 17 // UDP
	copy(f[26:30], src[:])
	copy(f[30:34], dst[:])
	binary.BigEndian.PutUint16(f[34:36], sport)
	binary.BigEndian.PutUint16(f[36:38], dport)
	binary.BigEndian.PutUint16(f[38:40], uint16(8+payload))
	return f
}

// TestMultiQueueSteering sends flows with distinct tuples from devB and
// checks every frame is harvested from exactly the queue RxQueueOf
// predicts — the contract the sharded stack's correctness rests on.
func TestMultiQueueSteering(t *testing.T) {
	const nq = 4
	r := newRigQueues(t, false, nq)
	src := [4]byte{10, 0, 0, 2}
	dst := [4]byte{10, 0, 0, 1}

	queueUsed := make([]bool, nq)
	for f := 0; f < 32; f++ {
		sport := uint16(41000 + 53*f)
		dport := uint16(5301 + f%4)
		want := r.devA.RxQueueOf(src, dst, 17, sport, dport)
		if want < 0 || want >= nq {
			t.Fatalf("RxQueueOf out of range: %d", want)
		}
		queueUsed[want] = true

		m := makeFrame(t, r.popB, udpFrame(src, dst, sport, dport, 64))
		if r.devB.TxBurstQ(0, []*Mbuf{m}) != 1 {
			t.Fatal("tx refused")
		}
		r.pump(5)

		var burst [8]*Mbuf
		for q := 0; q < nq; q++ {
			n := r.devA.RxBurstQ(q, burst[:])
			if q == want {
				if n != 1 {
					t.Fatalf("flow %d: queue %d returned %d frames, want 1", f, q, n)
				}
				got, err := burst[0].BytesRO()
				if err != nil || binary.BigEndian.Uint16(got[34:36]) != sport {
					t.Fatalf("flow %d: wrong frame on queue %d", f, q)
				}
				burst[0].Free()
			} else if n != 0 {
				t.Fatalf("flow %d: unexpected frame on queue %d (want %d)", f, q, want)
			}
		}
	}
	used := 0
	for _, u := range queueUsed {
		if u {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("test tuples exercised only %d queue(s)", used)
	}
}

// TestMultiQueueNonIPToQueueZero: ARP (and any non-IPv4 traffic) must
// land on queue 0, where every sharded deployment keeps a stack.
func TestMultiQueueNonIPToQueueZero(t *testing.T) {
	const nq = 4
	r := newRigQueues(t, false, nq)
	arp := make([]byte, 64)
	binary.BigEndian.PutUint16(arp[12:14], 0x0806)
	m := makeFrame(t, r.popB, arp)
	if r.devB.TxBurstQ(0, []*Mbuf{m}) != 1 {
		t.Fatal("tx refused")
	}
	r.pump(5)
	var burst [4]*Mbuf
	for q := 1; q < nq; q++ {
		if n := r.devA.RxBurstQ(q, burst[:]); n != 0 {
			t.Fatalf("non-IP frame on queue %d", q)
		}
	}
	if n := r.devA.RxBurstQ(0, burst[:]); n != 1 {
		t.Fatalf("queue 0 returned %d frames, want 1", n)
	}
	burst[0].Free()
}

// TestMultiQueueStatsSum: the frames harvested across every queue sum
// to the device's own frame counter.
func TestMultiQueueStatsSum(t *testing.T) {
	const nq = 4
	r := newRigQueues(t, false, nq)
	src := [4]byte{10, 0, 0, 2}
	dst := [4]byte{10, 0, 0, 1}
	const frames = 24
	for f := 0; f < frames; f++ {
		m := makeFrame(t, r.popB, udpFrame(src, dst, uint16(41000+211*f), 5301, 64))
		if r.devB.TxBurstQ(0, []*Mbuf{m}) != 1 {
			t.Fatal("tx refused")
		}
	}
	r.pump(20)
	var burst [8]*Mbuf
	total := 0
	for q := 0; q < nq; q++ {
		for {
			n := r.devA.RxBurstQ(q, burst[:])
			for i := 0; i < n; i++ {
				burst[i].Free()
			}
			total += n
			if n < len(burst) {
				break
			}
		}
	}
	if total != frames {
		t.Fatalf("harvested %d frames, want %d", total, frames)
	}
	if dev := r.devA.Stats(); dev.IPackets != frames {
		t.Fatalf("device RX count %d, want %d", dev.IPackets, frames)
	}
}

// TestRxQueueOfMatchesTheBitSerialHash: the steering oracle's byte
// table, built in programRSS, names the queue the specification does —
// canonical endpoint order, nic.ToeplitzHash over 12 bytes (TCP/UDP) or
// 8 (anything else), the redirection table — and a second programRSS
// rebuilds it (a table left from before would answer with the old key).
func TestRxQueueOfMatchesTheBitSerialHash(t *testing.T) {
	const nq = 8
	r := newRigQueues(t, false, nq)
	key := nic.DefaultRSSKey()
	ref := func(src, dst [4]byte, proto byte, sport, dport uint16) int {
		a, b := append(src[:], byte(sport>>8), byte(sport)), append(dst[:], byte(dport>>8), byte(dport))
		if bytes.Compare(a, b) >= 0 {
			a, b = b, a
		}
		in := append(append(append(append([]byte{}, a[:4]...), b[:4]...), a[4:]...), b[4:]...)
		if proto != 6 && proto != 17 {
			in = in[:8]
		}
		return int(nic.ToeplitzHash(key[:], in)&(nic.RetaEntries-1)) % nq
	}
	rng := rand.New(rand.NewSource(29))
	check := func(when string) {
		t.Helper()
		for i := 0; i < 2000; i++ {
			var src, dst [4]byte
			rng.Read(src[:])
			rng.Read(dst[:])
			proto := []byte{6, 17, 1}[i%3]
			sport, dport := uint16(rng.Uint32()), uint16(rng.Uint32())
			if got, want := r.devA.RxQueueOf(src, dst, proto, sport, dport), ref(src, dst, proto, sport, dport); got != want {
				t.Fatalf("%s: %v:%d -> %v:%d proto %d: RxQueueOf %d, bit-serial hash says %d", when, src, sport, dst, dport, proto, got, want)
			}
		}
	}
	check("after Start")
	r.devA.rssTab = [12][256]uint32{} // what a key change would leave stale
	r.devA.programRSS()
	check("after a second programRSS")
}

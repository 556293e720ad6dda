package testbed

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cheri"
	"repro/internal/dpdk"
	"repro/internal/sim"
)

// queueDev is a device queue that hands out its frames in order and
// takes every frame offered, recording the size of each RX request.
type queueDev struct {
	frames  []*dpdk.Mbuf
	rxAsked []int
	txTaken int
}

func (q *queueDev) RxBurst(out []*dpdk.Mbuf) int {
	q.rxAsked = append(q.rxAsked, len(out))
	n := copy(out, q.frames)
	q.frames = q.frames[n:]
	return n
}

func (q *queueDev) TxBurst(bufs []*dpdk.Mbuf) int {
	q.txTaken += len(bufs)
	return len(bufs)
}

func (q *queueDev) Poll()                    {}
func (q *queueDev) MAC() [6]byte             { return [6]byte{} }
func (q *queueDev) NextDeadline(int64) int64 { return math.MaxInt64 }

// mbufs takes n mbufs of length size from a fresh pool.
func mbufs(t *testing.T, n, size int) []*dpdk.Mbuf {
	t.Helper()
	seg, err := dpdk.NewMemSeg(cheri.NewTMem(1<<22), 0x100000, 2<<20, cheri.NullCap, false)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dpdk.NewMempool(seg, "cpu", n, dpdk.DefaultDataroom)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*dpdk.Mbuf, n)
	for i := range ms {
		m, ok := pool.Get()
		if !ok {
			t.Fatal("pool ran dry")
		}
		if err := m.SetLen(size); err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return ms
}

// TestCPUDevAdmission pins cpuDev's admission rule on a 1 Gbit/s core
// budget: RX harvests cpuChunk frames at a time while the core has
// window room and stops once it is booked past cpuWindow, refuses
// without asking the device until AdmitAt, and resumes there; TX books
// every frame it passes on and never refuses one.
func TestCPUDevAdmission(t *testing.T) {
	const bps, size = 1e9, 300 // 2.4 µs a frame: four chunks cross the 36.9 µs window
	frameNS := sim.BytesNS(size, bps)
	clk := sim.NewVClock()
	clk.Set(1_000_000)
	q := &queueDev{frames: mbufs(t, 64, size)}
	d := newCPUDev(q, clk, bps)
	out := make([]*dpdk.Mbuf, 32)

	now := clk.Now()
	if n := d.RxBurst(out); n != 16 {
		t.Fatalf("first burst harvested %d frames, want 16 (four chunks of %d)", n, cpuChunk)
	}
	if want := []int{cpuChunk, cpuChunk, cpuChunk, cpuChunk}; !slices.Equal(q.rxAsked, want) {
		t.Fatalf("device asked for %v, want %v", q.rxAsked, want)
	}
	if got := d.cpu.At(now) - now; got != 16*frameNS || got <= d.window || got-cpuChunk*frameNS > d.window {
		t.Fatalf("core booked %d ns ahead, want 16 frames (%d ns): past the %d ns window only with the last chunk",
			got, 16*frameNS, d.window)
	}

	at := d.cpu.AdmitAt(now, d.window)
	if at != now+16*frameNS-d.window {
		t.Fatalf("AdmitAt %d, want %d", at, now+16*frameNS-d.window)
	}
	asked := len(q.rxAsked)
	clk.Set(at - 1)
	if n := d.RxBurst(out); n != 0 || len(q.rxAsked) != asked {
		t.Fatalf("booked-out core harvested %d frames and asked the device %d times, want neither", n, len(q.rxAsked)-asked)
	}
	clk.Set(at)
	if n := d.RxBurst(out); n != cpuChunk || len(q.rxAsked) != asked+1 {
		t.Fatalf("at AdmitAt the core harvested %d frames in %d requests, want one chunk of %d", n, len(q.rxAsked)-asked, cpuChunk)
	}

	// TX: the core is past its window, and still every frame is taken
	// and booked.
	now = clk.Now()
	before := d.cpu.At(now)
	tx := mbufs(t, 16, size)
	for i := 0; i < 4; i++ {
		if n := d.TxBurst(tx[4*i : 4*i+4]); n != 4 {
			t.Fatalf("TX burst %d passed %d of 4 frames on a booked-out core", i, n)
		}
	}
	if q.txTaken != 16 {
		t.Fatalf("device took %d frames, want 16", q.txTaken)
	}
	if got := d.cpu.At(now) - before; got != 16*frameNS {
		t.Fatalf("TX booked %d ns, want %d (16 frames)", got, 16*frameNS)
	}
}

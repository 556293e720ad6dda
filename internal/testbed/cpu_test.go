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
// every frame it passes on and never refuses one. A built bed has one
// budget per queue (oneBudgetPerQueue).
func TestCPUDevAdmission(t *testing.T) {
	t.Run("one budget per queue", oneBudgetPerQueue)
	const bps, size = 1e9, 300 // 2.4 µs a frame: four chunks cross the 36.9 µs window
	frameNS := sim.BytesNS(size, bps)
	clk := sim.NewVClock()
	clk.Set(1_000_000)
	q := &queueDev{frames: mbufs(t, 64, size)}
	d := newCPUDev(q, clk, new(sim.Core), bps)
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

// oneBudgetPerQueue: in a built bed a queue's handle books on the
// queue's shard's core, and so does the shard's own hold of each frame it
// takes; any other handle for the queue (Spec admits one port per
// budgeted stack, so it is made here the way buildEnv makes port i's)
// shares that budget. Frames taken through the port's handle book the
// core past its window, so the second handle refuses RX until the core
// drains back inside it — from the bytes and the holds together.
func oneBudgetPerQueue(t *testing.T) {
	const bps, size, frames = 1e9, 1514, cpuChunk
	clk := sim.NewVClock()
	clk.Set(1_000_000)
	bed, err := Build(Spec{
		Clk:     clk,
		Machine: MachineSpec{Name: "m", Ports: 1},
		Compartments: []CompartmentSpec{{
			Name: "stack", Ifs: []IfSpec{{Port: 0}},
			Stack: StackSpec{Shards: 1, CPUBps: bps},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := bed.Envs[0]
	shard := env.Sharded.Shards()[0]
	// Frames on the port's one queue, addressed to the stack so that it
	// takes (and holds) each before it drops the unknown EtherType.
	p, mac := bed.Local.Card.Port(0), env.Devs[0].MAC()
	for i := 0; i < frames; i++ {
		f := p.Arena().Alloc(size)
		clear(f)
		copy(f, mac[:])
		f[12], f[13] = 0x88, 0xB5 // a local experimental EtherType
		p.DeliverFrame(f, clk.Now())
	}
	now := clk.Now()
	shard.PollOnce()
	if got := shard.Stats().RxFrames; got != frames {
		t.Fatalf("one poll took %d frames, want %d", got, frames)
	}
	perFrame := sim.BytesNS(size, bps) + sim.FrameHoldNS
	if got := shard.Core.At(now) - now; got != frames*perFrame {
		t.Fatalf("the shard's core is booked %d ns ahead, want %d (%d frames' bytes and holds)", got, frames*perFrame, frames)
	}

	other := &queueDev{frames: mbufs(t, frames, size)}
	h := newCPUDev(other, clk, shard.Core, bps)
	out := make([]*dpdk.Mbuf, frames)
	at := now + frames*perFrame - cpuWindow(bps)
	clk.Set(at - 1)
	if n := h.RxBurst(out); n != 0 || len(other.rxAsked) != 0 {
		t.Fatalf("the queue's other handle took %d frames before the holds drained, want none", n)
	}
	clk.Set(at)
	if n := h.RxBurst(out); n != frames {
		t.Fatalf("once the core drained inside its window the other handle took %d frames, want %d", n, frames)
	}
}

package dpdk

import (
	"bytes"
	"testing"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/nic"
	"repro/internal/sim"
)

// rig is a two-machine test rig: two single-port cards wired together
// over one shared memory (single-threaded test, so sharing is fine).
type rig struct {
	mem  *cheri.TMem
	clk  *sim.VClock
	pci  *hostos.PCI
	segA *MemSeg
	segB *MemSeg
	devA *EthDev
	devB *EthDev
	// portA is the port under devA, for the tests that tap its arrivals.
	portA *nic.Port
	popA  *Mempool
	popB  *Mempool
}

func newRig(t *testing.T, capMode bool) *rig {
	t.Helper()
	return newRigQueues(t, capMode, 1)
}

// newRigQueues builds the rig with nq RX/TX queue pairs on devA (the
// device under test); devB stays single-queue.
func newRigQueues(t *testing.T, capMode bool, nq int) *rig {
	t.Helper()
	mem := cheri.NewTMem(8 << 20)
	clk := sim.NewVClock()
	pci := hostos.NewPCI()

	mkCard := func(bdf string, mac byte) *nic.Card {
		c, err := nic.New(nic.Config{
			BDFBase: bdf, Ports: 1, LineRateBps: 1e9,
			MAC: [6]byte{2, 0, 0, 0, 0, mac}, Clk: clk, Mem: mem, CapDMA: capMode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterPCI(pci); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ca := mkCard("0000:03:00", 1)
	cb := mkCard("0000:04:00", 2)
	nic.Connect(ca.Port(0), cb.Port(0))

	mkSeg := func(base uint64) *MemSeg {
		var c cheri.Cap
		if capMode {
			var err error
			c, err = mem.Root().SetAddr(base).SetBounds(2 << 20)
			if err != nil {
				t.Fatal(err)
			}
			c, err = c.AndPerms(cheri.PermData)
			if err != nil {
				t.Fatal(err)
			}
		}
		seg, err := NewMemSeg(mem, base, 2<<20, c, capMode)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	r := &rig{mem: mem, clk: clk, pci: pci, segA: mkSeg(0x100000), segB: mkSeg(0x400000), portA: ca.Port(0)}

	for _, bdf := range []string{"0000:03:00.0", "0000:04:00.0"} {
		if errno := pci.Unbind(bdf); errno != hostos.OK {
			t.Fatal(errno)
		}
	}
	var err error
	r.popA, err = NewMempool(r.segA, "a", 512, DefaultDataroom)
	if err != nil {
		t.Fatal(err)
	}
	r.popB, err = NewMempool(r.segB, "b", 512, DefaultDataroom)
	if err != nil {
		t.Fatal(err)
	}
	r.devA, err = Probe(pci, "0000:03:00.0", r.segA)
	if err != nil {
		t.Fatal(err)
	}
	r.devB, err = Probe(pci, "0000:04:00.0", r.segB)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.devA.ConfigureQueues(nq, 64, 64, r.popA); err != nil {
		t.Fatal(err)
	}
	if err := r.devA.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.devB.ConfigureQueues(1, 64, 64, r.popB); err != nil {
		t.Fatal(err)
	}
	if err := r.devB.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

// makeFrame builds a TX mbuf carrying the given payload.
func makeFrame(t *testing.T, pool *Mempool, payload []byte) *Mbuf {
	t.Helper()
	m, ok := pool.Get()
	if !ok {
		t.Fatal("pool exhausted")
	}
	dst, err := m.Append(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	copy(dst, payload)
	return m
}

// pump advances virtual time while polling both devices.
func (r *rig) pump(ticks int) {
	for i := 0; i < ticks; i++ {
		r.devA.PollQ(0)
		r.devB.PollQ(0)
		r.clk.Advance(5000)
	}
}

func TestProbeRequiresUnbind(t *testing.T) {
	mem := cheri.NewTMem(1 << 20)
	clk := sim.NewVClock()
	pci := hostos.NewPCI()
	card, err := nic.New(nic.Config{
		BDFBase: "0000:03:00", Ports: 1, LineRateBps: 1e9,
		MAC: [6]byte{2, 0, 0, 0, 0, 1}, Clk: clk, Mem: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := card.RegisterPCI(pci); err != nil {
		t.Fatal(err)
	}
	seg, _ := NewMemSeg(mem, 0x10000, 1<<16, cheri.NullCap, false)
	if _, err := Probe(pci, "0000:03:00.0", seg); err == nil {
		t.Fatal("probe of a kernel-bound device must fail")
	}
}

func TestTxRxRoundTrip(t *testing.T) {
	for _, capMode := range []bool{false, true} {
		name := "raw"
		if capMode {
			name = "cheri"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, capMode)
			payload := bytes.Repeat([]byte{0x5A}, 300)
			payload[0] = 0xFF
			m := makeFrame(t, r.popA, payload)
			if n := r.devA.TxBurstQ(0, []*Mbuf{m}); n != 1 {
				t.Fatalf("TxBurst accepted %d", n)
			}
			r.pump(10)
			out := make([]*Mbuf, 8)
			n := r.devB.RxBurstQ(0, out)
			if n != 1 {
				t.Fatalf("RxBurst returned %d frames", n)
			}
			got, err := out[0].BytesRO()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("payload mismatch: %x...", got[:8])
			}
			out[0].Free()
			if len(r.popB.free) != r.popB.total-64 {
				// 64 descriptors hold pool buffers; the harvested one
				// was freed back.
				t.Fatalf("pool accounting: avail=%d", len(r.popB.free))
			}
		})
	}
}

func TestBurstOfMany(t *testing.T) {
	r := newRig(t, false)
	const total = 200
	sent := 0
	received := 0
	out := make([]*Mbuf, 32)
	for iter := 0; iter < 4000 && received < total; iter++ {
		for sent < total {
			m := makeFrame(t, r.popA, []byte{byte(sent), byte(sent >> 8), 3, 4})
			if r.devA.TxBurstQ(0, []*Mbuf{m}) == 0 {
				m.Free()
				break
			}
			sent++
		}
		r.pump(1)
		n := r.devB.RxBurstQ(0, out)
		for i := 0; i < n; i++ {
			out[i].Free()
		}
		received += n
	}
	if received != total {
		t.Fatalf("received %d of %d", received, total)
	}
	// All mbufs must eventually return home.
	r.pump(50)
	r.devA.PollQ(0)
	if got := len(r.popA.free); got != r.popA.total-64 {
		t.Fatalf("sender pool leaked: avail %d of %d", got, r.popA.total)
	}
}

func TestTxBackpressure(t *testing.T) {
	r := newRig(t, false)
	// Without pumping time, the 64-deep TX ring plus serializer window
	// must eventually refuse frames.
	accepted := 0
	for i := 0; i < 200; i++ {
		m := makeFrame(t, r.popA, make([]byte, 1200))
		if r.devA.TxBurstQ(0, []*Mbuf{m}) == 0 {
			m.Free()
			break
		}
		accepted++
	}
	if accepted >= 200 {
		t.Fatal("TX never exerted backpressure")
	}
	if accepted < 32 {
		t.Fatalf("TX refused too early: %d", accepted)
	}
}

func TestStatsCounters(t *testing.T) {
	r := newRig(t, false)
	m := makeFrame(t, r.popA, make([]byte, 500))
	r.devA.TxBurstQ(0, []*Mbuf{m})
	r.pump(10)
	out := make([]*Mbuf, 4)
	if n := r.devB.RxBurstQ(0, out); n != 1 {
		t.Fatalf("rx %d", n)
	}
	out[0].Free()
	sa, sb := r.devA.Stats(), r.devB.Stats()
	if sa.OPackets != 1 || sa.OBytes != 500 {
		t.Fatalf("tx stats %+v", sa)
	}
	if sb.IPackets != 1 || sb.IBytes != 500 {
		t.Fatalf("rx stats %+v", sb)
	}
}

func TestMempoolExhaustion(t *testing.T) {
	mem := cheri.NewTMem(1 << 20)
	seg, err := NewMemSeg(mem, 0x1000, 1<<18, cheri.NullCap, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMempool(seg, "tiny", 4, DefaultDataroom)
	if err != nil {
		t.Fatal(err)
	}
	var taken []*Mbuf
	for {
		m, ok := p.Get()
		if !ok {
			break
		}
		taken = append(taken, m)
	}
	if len(taken) != 4 {
		t.Fatalf("got %d mbufs from a 4-pool", len(taken))
	}
	for _, m := range taken {
		m.Free()
	}
	if len(p.free) != 4 {
		t.Fatalf("avail %d after freeing all", len(p.free))
	}
}

func TestMbufEditing(t *testing.T) {
	mem := cheri.NewTMem(1 << 20)
	seg, _ := NewMemSeg(mem, 0x1000, 1<<18, cheri.NullCap, false)
	p, _ := NewMempool(seg, "edit", 2, DefaultDataroom)
	m, _ := p.Get()

	if m.off != MbufHeadroom || m.Len() != 0 {
		t.Fatalf("fresh mbuf: headroom=%d len=%d", m.off, m.Len())
	}
	body, err := m.Append(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = byte(i)
	}
	if err := m.SetLen(50); err != nil {
		t.Fatal(err)
	}
	got, _ := m.BytesRO()
	if len(got) != 50 || got[0] != 0 || got[49] != 49 {
		t.Fatalf("payload after setlen: len=%d", len(got))
	}
	// Guards.
	if err := m.SetLen(DefaultDataroom); err == nil {
		t.Fatal("setlen beyond the data room must fail")
	}
	if _, err := m.Append(1 << 16); err == nil {
		t.Fatal("append beyond tailroom must fail")
	}
}

func TestMempoolDoubleFreePanics(t *testing.T) {
	mem := cheri.NewTMem(1 << 20)
	seg, _ := NewMemSeg(mem, 0x1000, 1<<18, cheri.NullCap, false)
	p, _ := NewMempool(seg, "dbl", 2, DefaultDataroom)
	m, _ := p.Get()
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	m.Free()
}

func TestSegExhaustion(t *testing.T) {
	mem := cheri.NewTMem(1 << 20)
	seg, _ := NewMemSeg(mem, 0x1000, 1<<14, cheri.NullCap, false)
	if _, err := seg.Alloc(1<<13, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Alloc(1<<13+64, 64); err == nil {
		t.Fatal("over-allocation must fail")
	}
	if _, err := seg.Alloc(0, 1); err == nil {
		t.Fatal("zero alloc must fail")
	}
	if _, err := NewMempool(seg, "nofit", 100000, DefaultDataroom); err == nil {
		t.Fatal("mempool larger than segment must fail")
	}
}

func TestCapModeSegRejectsForeignAccess(t *testing.T) {
	mem := cheri.NewTMem(1 << 20)
	c, err := mem.Root().SetAddr(0x10000).SetBounds(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	c, _ = c.AndPerms(cheri.PermData)
	seg, err := NewMemSeg(mem, 0x10000, 0x1000, c, true)
	if err != nil {
		t.Fatal(err)
	}
	// In-bounds works.
	if _, err := seg.Slice(0x10000, 16); err != nil {
		t.Fatal(err)
	}
	// Outside the capability: fault.
	if _, err := seg.Slice(0x20000, 16); err == nil {
		t.Fatal("out-of-capability slice must fault")
	}
	// A capability that does not cover the claimed range is rejected.
	if _, err := NewMemSeg(mem, 0x40000, 0x1000, c, true); err == nil {
		t.Fatal("mismatched capability must be rejected")
	}
}

package dpdk

import (
	"math"
	"testing"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/nic"
	"repro/internal/sim"
)

func claimedDev(t *testing.T) (*EthDev, *Mempool) {
	t.Helper()
	mem := cheri.NewTMem(4 << 20)
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
	pci.Unbind("0000:03:00.0")
	seg, err := NewMemSeg(mem, 0x100000, 2<<20, cheri.NullCap, false)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMempool(seg, "p", 256, DefaultDataroom)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Probe(pci, "0000:03:00.0", seg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, pool
}

func TestEthDevMisuse(t *testing.T) {
	dev, pool := claimedDev(t)
	// Start before configure.
	if err := dev.Start(); err == nil {
		t.Fatal("start before configure accepted")
	}
	// Burst before start.
	if n := dev.RxBurstQ(0, make([]*Mbuf, 4)); n != 0 {
		t.Fatal("rx before start returned frames")
	}
	if n := dev.TxBurstQ(0, nil); n != 0 {
		t.Fatal("tx before start accepted frames")
	}
	dev.PollQ(0) // must be harmless
	if d := dev.Queue(0).NextDeadline(0); d != math.MaxInt64 {
		t.Fatalf("a queue of a device not started is due at %d", d)
	}
	// Undersized rings.
	if err := dev.ConfigureQueues(1, 4, 4, pool); err == nil {
		t.Fatal("tiny rings accepted")
	}
	if err := dev.ConfigureQueues(1, 64, 64, pool); err != nil {
		t.Fatal(err)
	}
	// Double configure.
	if err := dev.ConfigureQueues(1, 64, 64, pool); err == nil {
		t.Fatal("double configure accepted")
	}
	if err := dev.Start(); err != nil {
		t.Fatal(err)
	}
	// Double start.
	if err := dev.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	// A queue the device does not have: the bursts refuse it, so nothing
	// of it can ever be due.
	if n := dev.RxBurstQ(1, make([]*Mbuf, 4)); n != 0 {
		t.Fatal("rx on an unconfigured queue returned frames")
	}
	if d := dev.Queue(1).NextDeadline(0); d != math.MaxInt64 {
		t.Fatalf("an unconfigured queue is due at %d", d)
	}
	if d := dev.Queue(0).NextDeadline(0); d != math.MaxInt64 {
		t.Fatalf("an idle queue on an unconnected port is due at %d", d)
	}
}

func TestEthDevStartFailsOnTinyPool(t *testing.T) {
	dev, _ := claimedDev(t)
	mem := cheri.NewTMem(2 << 20)
	seg, _ := NewMemSeg(mem, 0x1000, 1<<20, cheri.NullCap, false)
	tiny, err := NewMempool(seg, "tiny", 8, DefaultDataroom)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ConfigureQueues(1, 64, 64, tiny); err != nil {
		t.Fatal(err)
	}
	// 64 RX descriptors need 64 buffers; the pool has 8.
	if err := dev.Start(); err == nil {
		t.Fatal("start with an exhausted pool accepted")
	}
}

package fstack

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cheri"
	"repro/internal/dpdk"
	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/sim"
)

// testEnv is a two-machine rig: stack A (10.0.0.1) and stack B
// (10.0.0.2) wired back-to-back at 1 Gbit/s, driven in virtual time.
type testEnv struct {
	t    testing.TB
	clk  *sim.VClock
	stkA *Stack
	stkB *Stack
	// portA and portB are the two ends of the cable: portB takes in
	// every frame stkA sends, portA every frame stkB sends.
	portA, portB *nic.Port
}

// buildDevice makes one machine up to its started ethdevs: memory, a
// card of the given ports, segment, pool, and nq RX/TX queue pairs on
// every port's ethdev.
func buildDevice(t testing.TB, clk *sim.VClock, bdf string, macLast byte, capMode bool, ports, nq int) (*dpdk.MemSeg, *dpdk.Mempool, []*dpdk.EthDev, *nic.Card) {
	t.Helper()
	mem := cheri.NewTMem(16 << 20)
	pci := hostos.NewPCI()
	card, err := nic.New(nic.Config{
		BDFBase: bdf, Ports: ports, LineRateBps: 1e9,
		MAC: [6]byte{2, 0, 0, 0, 0, macLast}, Clk: clk, Mem: mem, CapDMA: capMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := card.RegisterPCI(pci); err != nil {
		t.Fatal(err)
	}
	var segCap cheri.Cap
	const segBase, segSize = 0x100000, 8 << 20
	if capMode {
		segCap, err = mem.Root().SetAddr(segBase).SetBounds(segSize)
		if err != nil {
			t.Fatal(err)
		}
		segCap, err = segCap.AndPerms(cheri.PermData)
		if err != nil {
			t.Fatal(err)
		}
	}
	seg, err := dpdk.NewMemSeg(mem, segBase, segSize, segCap, capMode)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dpdk.NewMempool(seg, "pkt", 1024, dpdk.DefaultDataroom)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*dpdk.EthDev, ports)
	for i := range devs {
		fn := fmt.Sprintf("%s.%d", bdf, i)
		if errno := pci.Unbind(fn); errno != hostos.OK {
			t.Fatal(errno)
		}
		dev, err := dpdk.Probe(pci, fn, seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.ConfigureQueues(nq, 256, 256, pool); err != nil {
			t.Fatal(err)
		}
		if err := dev.Start(); err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	return seg, pool, devs, card
}

// buildMachine makes one machine: a single-queue device under one stack.
func buildMachine(t testing.TB, clk *sim.VClock, bdf string, macLast byte, ip IPv4Addr, capMode bool) (*Stack, *nic.Card) {
	t.Helper()
	seg, pool, devs, card := buildDevice(t, clk, bdf, macLast, capMode, 1, 1)
	stk := NewStack(seg, pool, clk)
	stk.AddNetIF(devs[0].Queue(0), ip, IP4(255, 255, 255, 0))
	return stk, card
}

// buildShardedMachine is buildMachine with nq queue pairs under a
// ShardedStack.
func buildShardedMachine(t testing.TB, clk *sim.VClock, bdf string, macLast byte, ip IPv4Addr, nq int) (*ShardedStack, *nic.Card) {
	t.Helper()
	seg, pool, devs, card := buildDevice(t, clk, bdf, macLast, false, 1, nq)
	dev := devs[0]
	ss, err := NewShardedStack(nq, seg, pool, clk)
	if err != nil {
		t.Fatal(err)
	}
	queues := make([]EthDevice, nq)
	for q := range queues {
		queues[q] = dev.Queue(q)
	}
	if err := ss.AddNetIF(queues, dev.RxQueueOf, ip, IP4(255, 255, 255, 0)); err != nil {
		t.Fatal(err)
	}
	return ss, card
}

// newRig builds the two-machine rig, stack A (10.0.0.1) and stack B
// (10.0.0.2), and cables their ports with link: plainCable, netemLink or
// a scriptWire's attach.
func newRig(t testing.TB, capMode bool, link func(clk *sim.VClock, a, b *nic.Port)) *testEnv {
	t.Helper()
	clk := sim.NewVClock()
	stkA, cardA := buildMachine(t, clk, "0000:03:00", 1, IP4(10, 0, 0, 1), capMode)
	stkB, cardB := buildMachine(t, clk, "0000:04:00", 2, IP4(10, 0, 0, 2), capMode)
	link(clk, cardA.Port(0), cardB.Port(0))
	return &testEnv{t: t, clk: clk, stkA: stkA, stkB: stkB, portA: cardA.Port(0), portB: cardB.Port(0)}
}

// newEnv is the rig on a plain cable.
func newEnv(t testing.TB, capMode bool) *testEnv { return newRig(t, capMode, plainCable) }

func plainCable(_ *sim.VClock, a, b *nic.Port) { nic.Connect(a, b) }

// netemLink cables the rig through netem, ab impairing what A sends.
func netemLink(ab, ba netem.Config) func(*sim.VClock, *nic.Port, *nic.Port) {
	return func(clk *sim.VClock, a, b *nic.Port) { netem.ConnectAsym(clk, a, b, ab, ba) }
}

// stream is a payload on its way from socket wfd of one stack to rfd
// of another.
type stream struct {
	from, to *Stack
	wfd, rfd int
	payload  []byte
	chunk    int // bytes a Write offers; 0 is 16 KiB
	sent     int
	got      []byte
}

// pump writes what the sender takes and reads what has arrived; it
// reports whether all of the payload has.
func (s *stream) pump() bool {
	for s.sent < len(s.payload) {
		n, errno := s.from.Write(s.wfd, s.payload[s.sent:min(s.sent+cmp.Or(s.chunk, 16<<10), len(s.payload))])
		if errno != hostos.OK || n == 0 {
			break
		}
		s.sent += n
	}
	for {
		s.got = slices.Grow(s.got, 64<<10)
		n, errno := s.to.Read(s.rfd, s.got[len(s.got):cap(s.got)])
		if errno != hostos.OK || n == 0 {
			break
		}
		s.got = s.got[:len(s.got)+n]
	}
	return len(s.got) == len(s.payload)
}

// sendAll pushes payload through cfd, draining afd, until the receiver
// holds everything; returns the received bytes.
func sendAll(e *testEnv, cfd, afd int, payload []byte, maxTicks int) []byte {
	e.t.Helper()
	s := &stream{from: e.stkA, to: e.stkB, wfd: cfd, rfd: afd, payload: payload}
	e.pumpUntil(maxTicks, "transfer completes", s.pump)
	return s.got
}

// tick runs one poll iteration on both stacks and advances 5 µs.
func (e *testEnv) tick() {
	e.stkA.PollOnce()
	e.stkB.PollOnce()
	e.clk.Advance(5000)
}

// pumpUntil ticks until cond is true, failing after maxTicks.
func (e *testEnv) pumpUntil(maxTicks int, what string, cond func() bool) {
	e.t.Helper()
	for i := 0; i < maxTicks; i++ {
		if cond() {
			return
		}
		e.tick()
	}
	e.t.Fatalf("condition %q not reached after %d ticks (%.1f ms virtual)",
		what, maxTicks, float64(e.clk.Now())/1e6)
}

// connectPair establishes a TCP connection: B listens on port, A
// connects; returns (client fd on A, accepted fd on B).
func (e *testEnv) connectPair(port uint16) (int, int) {
	e.t.Helper()
	lfd, cfd := e.dial(port)
	afd := -1
	e.pumpUntil(4000, "accept", func() bool {
		fd, _, _, errno := e.stkB.Accept(lfd)
		if errno == hostos.OK {
			afd = fd
			return true
		}
		return false
	})
	e.pumpUntil(4000, "client established", func() bool {
		return e.stkA.ConnState(cfd) == "ESTABLISHED"
	})
	return cfd, afd
}

// dial makes B listen on port and starts A's active open toward it;
// returns (listener fd on B, client fd on A). The caller steps the
// handshake.
func (e *testEnv) dial(port uint16) (int, int) {
	e.t.Helper()
	return listen(e.t, e.stkB, port), dial(e.t, e.stkA, IPv4Addr{}, IP4(10, 0, 0, 2), port)
}

// listen opens a listener on every address of s at port.
func listen(t testing.TB, s *Stack, port uint16) int {
	t.Helper()
	lfd, _ := s.Socket(SockStream)
	if errno := s.Bind(lfd, IPv4Addr{}, port); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := s.Listen(lfd, 8); errno != hostos.OK {
		t.Fatal(errno)
	}
	return lfd
}

// dial starts an active open from s, bound to local first when it is
// not the zero address.
func dial(t testing.TB, s *Stack, local, ip IPv4Addr, port uint16) int {
	t.Helper()
	fd, _ := s.Socket(SockStream)
	if local != (IPv4Addr{}) {
		if errno := s.Bind(fd, local, 0); errno != hostos.OK {
			t.Fatal(errno)
		}
	}
	if errno := s.Connect(fd, ip, port); errno != hostos.EINPROGRESS {
		t.Fatalf("connect: %v", errno)
	}
	return fd
}

package fstack

import (
	"testing"

	"repro/internal/hostos"
	"repro/internal/nic"
	"repro/internal/sim"
)

// TestShardedViewsShareOnePortSpace: two views of one 2-shard stack
// place unbound sockets from the stack's one port rotation. Each view
// connects an unbound socket to the same remote ip:port, and both opens
// go ahead from distinct source ports; each view's first datagram from
// an unbound socket leaves from a source port of its own.
func TestShardedViewsShareOnePortSpace(t *testing.T) {
	clk := sim.NewVClock()
	ipA, ipB := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	stkA, cardA := buildMachine(t, clk, "0000:03:00", 1, ipA, false)
	ss, cardB := buildShardedMachine(t, clk, "0000:04:00", 2, ipB, 2)
	nic.Connect(cardA.Port(0), cardB.Port(0))
	tick := func() {
		stkA.PollOnce()
		for _, s := range ss.Shards() {
			s.PollOnce()
		}
		clk.Advance(5000)
	}
	const tcpPort, udpPort = 5001, 5002
	lfd, _ := stkA.Socket(SockStream)
	ufd, _ := stkA.Socket(SockDgram)
	for _, errno := range []hostos.Errno{
		stkA.Bind(lfd, IPv4Addr{}, tcpPort), stkA.Listen(lfd, 4), stkA.Bind(ufd, IPv4Addr{}, udpPort),
	} {
		if errno != hostos.OK {
			t.Fatal(errno)
		}
	}

	views := []*ShardedAPI{ss.API(), ss.API()}
	for i, v := range views {
		fd, _ := v.Socket(SockStream)
		if errno := v.Connect(fd, ipA, tcpPort); errno != hostos.EINPROGRESS {
			t.Fatalf("view %d: connect of an unbound socket: %v, want EINPROGRESS", i, errno)
		}
		dfd, _ := v.Socket(SockDgram)
		if _, errno := v.SendTo(dfd, []byte{byte(i)}, ipA, udpPort); errno != hostos.OK {
			t.Fatalf("view %d: datagram from an unbound socket: %v", i, errno)
		}
	}
	var tcpPorts, udpPorts []uint16
	buf := make([]byte, 16)
	for i := 0; i < 400 && (len(tcpPorts) < 2 || len(udpPorts) < 2); i++ {
		tick()
		if _, _, port, errno := stkA.Accept(lfd); errno == hostos.OK {
			tcpPorts = append(tcpPorts, port)
		}
		if _, _, port, errno := stkA.RecvFrom(ufd, buf); errno == hostos.OK {
			udpPorts = append(udpPorts, port)
		}
	}
	if len(tcpPorts) != 2 || tcpPorts[0] == tcpPorts[1] {
		t.Fatalf("accepted connections from source ports %v, want two distinct", tcpPorts)
	}
	if len(udpPorts) != 2 || udpPorts[0] == udpPorts[1] {
		t.Fatalf("datagrams from source ports %v, want two distinct", udpPorts)
	}
}

// TestShardedDialAllocs pins the descriptor layer on a warm 4-shard
// view: a dial — Socket, EpollCtl(ADD, EPOLLOUT), Connect, Close —
// allocates nothing, and only shard 0, where the socket is made, and the
// shard its connection lands on take a socket struct or a registration;
// the other shards are not touched. The connections round-robin the
// shards, so every shard is the target in turn. Under the race detector,
// whose instrumentation allocates, only the shards are checked.
func TestShardedDialAllocs(t *testing.T) {
	clk := sim.NewVClock()
	ipB := IP4(10, 0, 0, 2)
	ss, cardA := buildShardedMachine(t, clk, "0000:03:00", 1, IP4(10, 0, 0, 1), 4)
	stkB, cardB := buildMachine(t, clk, "0000:04:00", 2, ipB, false)
	nic.Connect(cardA.Port(0), cardB.Port(0))
	api := ss.API()
	ep := api.EpollCreate()
	target := -1
	dial := func() {
		fd, _ := api.Socket(SockStream)
		if errno := api.EpollCtl(ep, EpollCtlAdd, fd, EPOLLOUT); errno != hostos.OK {
			t.Fatalf("epoll add: %v", errno)
		}
		if errno := api.Connect(fd, ipB, 9200); errno != hostos.EINPROGRESS {
			t.Fatalf("connect: %v", errno)
		}
		target = api.fds.get(fd).shard
		api.Close(fd)
		for range 4 { // the SYN leaves and the peer's RST comes back
			for _, s := range ss.shards {
				s.PollOnce()
			}
			stkB.PollOnce()
			clk.Advance(5000)
		}
	}
	for range 64 { // ARP, the slabs, the pools, the descriptor page
		dial()
	}
	type held struct {
		issued, free int
		regs         *epollReg
	}
	for i := range 8 {
		var before [4]held
		for k, s := range ss.shards {
			before[k] = held{s.sockIssued, len(s.sockFree), s.regFree}
		}
		dial()
		if target != i%4 {
			t.Fatalf("dial %d landed on shard %d, want the rotation's %d", i, target, i%4)
		}
		for k, s := range ss.shards {
			if k != 0 && k != target && (held{s.sockIssued, len(s.sockFree), s.regFree}) != before[k] {
				t.Errorf("a dial to shard %d touched shard %d's sockets or registrations", target, k)
			}
		}
	}
	if raceEnabled {
		return
	}
	if a := testing.AllocsPerRun(200, dial); a != 0 {
		t.Fatalf("a dial on a warm 4-shard view costs %.0f allocations, want 0", a)
	}
}

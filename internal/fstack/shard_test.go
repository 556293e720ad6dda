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

package fstack

import (
	"testing"

	"repro/internal/hostos"
	"repro/internal/sim"
)

// dualRig is a machine M with two ports, 10.0.0.1/24 on port 0 cabled to
// stack B (10.0.0.2) and 10.0.1.1/24 on port 1 cabled to stack C
// (10.0.1.2), each through a recording wire with M at end 0.
type dualRig struct {
	t       *testing.T
	clk     *sim.VClock
	m, b, c *Stack
	wires   [2]*scriptWire
}

func newDualRig(t *testing.T) *dualRig {
	clk := sim.NewVClock()
	seg, pool, devs, card := buildDevice(t, clk, "0000:03:00", 1, false, 2, 1)
	m := NewStack(seg, pool, clk)
	m.AddNetIF(devs[0].Queue(0), IP4(10, 0, 0, 1), IP4(255, 255, 255, 0))
	m.AddNetIF(devs[1].Queue(0), IP4(10, 0, 1, 1), IP4(255, 255, 255, 0))
	b, cardB := buildMachine(t, clk, "0000:04:00", 3, IP4(10, 0, 0, 2), false)
	c, cardC := buildMachine(t, clk, "0000:05:00", 4, IP4(10, 0, 1, 2), false)
	r := &dualRig{t: t, clk: clk, m: m, b: b, c: c, wires: [2]*scriptWire{{record: true}, {record: true}}}
	r.wires[0].attach(clk, card.Port(0), cardB.Port(0))
	r.wires[1].attach(clk, card.Port(1), cardC.Port(0))
	return r
}

// pumpUntil polls all three stacks 5 µs apart until cond holds.
func (r *dualRig) pumpUntil(maxTicks int, what string, cond func() bool) {
	r.t.Helper()
	for i := 0; i < maxTicks; i++ {
		if cond() {
			return
		}
		r.m.PollOnce()
		r.b.PollOnce()
		r.c.PollOnce()
		r.clk.Advance(5000)
	}
	r.t.Fatalf("condition %q not reached after %d ticks", what, maxTicks)
}

// TestDualPortSegmentsLeaveByTheirLocalAddress: a connection has no
// interface of its own; every segment leaves by the port that owns its
// local address. On a two-port machine an accepted connection on each
// port and an unbound active open toward each port's subnet carry a
// request, a reply and both FINs, and every TCP frame each peer sees
// carries its own port's address. The one case where the owning port
// and the route part, an active open bound to port 0's address toward
// port 1's subnet, is refused by Connect with EADDRNOTAVAIL before any
// frame leaves.
func TestDualPortSegmentsLeaveByTheirLocalAddress(t *testing.T) {
	r := newDualRig(t)
	addrs := [2]IPv4Addr{IP4(10, 0, 0, 1), IP4(10, 0, 1, 1)}
	peers := [2]*Stack{r.b, r.c}
	peerIPs := [2]IPv4Addr{IP4(10, 0, 0, 2), IP4(10, 0, 1, 2)}

	// M's listener accepts one connection from each peer; each peer's
	// listener takes one unbound active open from M.
	mLfd := listen(t, r.m, 7000)
	type pair struct{ mfd, pfd int }
	var pairs []pair
	for i, p := range peers {
		pfd := dial(t, p, IPv4Addr{}, addrs[i], 7000)
		var mfd int
		r.pumpUntil(4000, "M accepts", func() bool {
			fd, _, _, errno := r.m.Accept(mLfd)
			mfd = fd
			return errno == hostos.OK
		})
		pairs = append(pairs, pair{mfd, pfd})
		plfd := listen(t, p, 7001)
		mfd = dial(t, r.m, IPv4Addr{}, peerIPs[i], 7001)
		r.pumpUntil(4000, "peer accepts", func() bool {
			fd, _, _, errno := p.Accept(plfd)
			pfd = fd
			return errno == hostos.OK
		})
		pairs = append(pairs, pair{mfd, pfd})
	}
	buf := make([]byte, 64)
	for i, pr := range pairs {
		p := peers[i/2]
		r.pumpUntil(4000, "established", func() bool { return r.m.ConnState(pr.mfd) == "ESTABLISHED" })
		if _, errno := r.m.Write(pr.mfd, []byte("request")); errno != hostos.OK {
			t.Fatal(errno)
		}
		r.pumpUntil(4000, "peer reads", func() bool { n, _ := p.Read(pr.pfd, buf); return n > 0 })
		if _, errno := p.Write(pr.pfd, []byte("reply")); errno != hostos.OK {
			t.Fatal(errno)
		}
		r.pumpUntil(4000, "M reads", func() bool { n, _ := r.m.Read(pr.mfd, buf); return n > 0 })
		r.m.Close(pr.mfd)
		p.Close(pr.pfd)
	}
	r.pumpUntil(40000, "M's table drained", func() bool { return r.m.ConnCount() == 0 })

	for i, w := range r.wires {
		// Each of the port's two connections sent its opening segment
		// (SYN or SYN|ACK), data and a FIN by this port.
		seen := map[uint16]uint8{}
		for _, f := range w.segs(0) {
			if f.ip.Src != addrs[i] {
				t.Fatalf("port %d sent a segment from %v (ports %d→%d, flags %#x)",
					i, f.ip.Src, f.h.SrcPort, f.h.DstPort, f.h.Flags)
			}
			if f.n > 0 {
				seen[f.h.SrcPort] |= TCPPsh
			}
			seen[f.h.SrcPort] |= f.h.Flags & (TCPSyn | TCPFin)
		}
		if len(seen) != 2 {
			t.Fatalf("port %d carried segments of %d connections, want 2: %v", i, len(seen), seen)
		}
		for port, got := range seen {
			if got != TCPSyn|TCPPsh|TCPFin {
				t.Errorf("port %d, local port %d: saw flags %#x, want a SYN, data and a FIN", i, port, got)
			}
		}
	}

	// Bound to port 0's address, toward port 1's subnet: the SYN could
	// only wait on port 0 for an ARP answer no host there gives, so
	// Connect refuses up front, nothing leaves either port, and the
	// socket still opens toward port 0's own subnet.
	r.wires[0].log, r.wires[1].log = nil, nil
	fd, _ := r.m.Socket(SockStream)
	if errno := r.m.Bind(fd, addrs[0], 0); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := r.m.Connect(fd, peerIPs[1], 7001); errno != hostos.EADDRNOTAVAIL {
		t.Fatalf("bound active open toward port 1's subnet: %v, want EADDRNOTAVAIL", errno)
	}
	resent := r.clk.Now() + rtoInitial + rtoInitial/2
	r.pumpUntil(40000, "a SYN's resend time passed", func() bool { return r.clk.Now() > resent })
	if st := r.m.ConnState(fd); st != "NONE" {
		t.Errorf("refused active open is %s, want no connection", st)
	}
	for i, w := range r.wires {
		if len(w.log) != 0 {
			t.Errorf("port %d sent %d frames for a refused open", i, len(w.log))
		}
	}
	if errno := r.m.Connect(fd, peerIPs[0], 7001); errno != hostos.EINPROGRESS {
		t.Fatalf("the refused socket toward port 0's subnet: %v, want EINPROGRESS", errno)
	}
	r.pumpUntil(4000, "established from port 0's address", func() bool { return r.m.ConnState(fd) == "ESTABLISHED" })
}

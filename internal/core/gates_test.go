package core

import (
	"bytes"
	"testing"

	"repro/internal/app"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// pump advances a Scenario 2 setup in virtual time.
func pumpS2(s *Setup, clk *sim.VClock, ticks int) {
	loops := s.Loops()
	for i := 0; i < ticks; i++ {
		for _, l := range loops {
			l.RunOnce()
		}
		clk.Advance(5000)
	}
}

func TestGatedAPIFullSocketLifecycle(t *testing.T) {
	clk := sim.NewVClock()
	s, err := NewScenario2(clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	api := s.Apps[0]

	// The peer runs a plain echo-ish sink; here we run OUR server in the
	// app cVM and connect from the peer to exercise Accept through the
	// gates.
	lfd, errno := api.Socket(fstack.SockStream)
	if errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := api.Bind(lfd, fstack.IPv4Addr{}, 7777); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := api.Listen(lfd, 4); errno != hostos.OK {
		t.Fatal(errno)
	}
	ep := api.EpollCreate()
	if errno := api.EpollCtl(ep, fstack.EpollCtlAdd, lfd, fstack.EPOLLIN); errno != hostos.OK {
		t.Fatal(errno)
	}

	// Peer connects.
	pstk := s.Peers[0].Env.Stk
	cfd, _ := pstk.Socket(fstack.SockStream)
	if errno := pstk.Connect(cfd, localIP(0), 7777); errno != hostos.EINPROGRESS {
		t.Fatal(errno)
	}
	var afd int = -1
	var peerAddr fstack.IPv4Addr
	for i := 0; i < 4000 && afd < 0; i++ {
		pumpS2(s, clk, 1)
		var evs [4]fstack.Event
		if n, _ := api.EpollWait(ep, evs[:]); n > 0 && evs[0].Events&fstack.EPOLLIN != 0 {
			fd, ip, _, errno := api.Accept(lfd)
			if errno == hostos.OK {
				afd = fd
				peerAddr = ip
			}
		}
	}
	if afd < 0 {
		t.Fatal("accept through gates never completed")
	}
	if peerAddr != peerIP(0) {
		t.Fatalf("peer address %v, want %v", peerAddr, peerIP(0))
	}

	// Peer sends; app reads through the gate.
	msg := bytes.Repeat([]byte("gate-crossing "), 100)
	pstk.Write(cfd, msg)
	var got []byte
	buf := make([]byte, 4096)
	for i := 0; i < 4000 && len(got) < len(msg); i++ {
		pumpS2(s, clk, 1)
		for {
			n, errno := api.Read(afd, buf)
			if errno != hostos.OK || n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("cross-compartment read corrupted: %d of %d bytes", len(got), len(msg))
	}

	// App writes back, more than one crossing's worth and no two chunks
	// alike; peer receives.
	reply := make([]byte, 40000)
	for i := range reply {
		reply[i] = byte(i % 251)
	}
	if n, errno := api.Write(afd, reply); errno != hostos.OK || n != len(reply) {
		t.Fatalf("gated write: n=%d errno=%v", n, errno)
	}
	var back []byte
	for i := 0; i < 4000 && len(back) < len(reply); i++ {
		pumpS2(s, clk, 1)
		for {
			n, errno := pstk.Read(cfd, buf)
			if errno != hostos.OK || n == 0 {
				break
			}
			back = append(back, buf[:n]...)
		}
	}
	if !bytes.Equal(back, reply) {
		t.Fatalf("gated write corrupted: %d of %d", len(back), len(reply))
	}
	if errno := api.Close(afd); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := api.Close(lfd); errno != hostos.OK {
		t.Fatal(errno)
	}

	// The datagram leg: the peer's query reaches the app with its
	// source address, and the app's answer goes back to it, both
	// through the gates.
	ufd, errno := api.Socket(fstack.SockDgram)
	if errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := api.Bind(ufd, fstack.IPv4Addr{}, 7778); errno != hostos.OK {
		t.Fatal(errno)
	}
	pfd, _ := pstk.Socket(fstack.SockDgram)
	if errno := pstk.Bind(pfd, fstack.IPv4Addr{}, 9999); errno != hostos.OK {
		t.Fatal(errno)
	}
	query := []byte("who is behind the gate?")
	if n, errno := pstk.SendTo(pfd, query, localIP(0), 7778); errno != hostos.OK || n != len(query) {
		t.Fatalf("peer sendto: n=%d errno=%v", n, errno)
	}
	n, from, fromPort, errno := -1, fstack.IPv4Addr{}, uint16(0), hostos.EAGAIN
	for i := 0; i < 4000 && errno == hostos.EAGAIN; i++ {
		pumpS2(s, clk, 1)
		n, from, fromPort, errno = api.RecvFrom(ufd, buf)
	}
	if errno != hostos.OK || !bytes.Equal(buf[:n], query) || from != peerIP(0) || fromPort != 9999 {
		t.Fatalf("gated recvfrom: %q from %v:%d, errno %v", buf[:max(n, 0)], from, fromPort, errno)
	}
	answer := []byte("an app cVM")
	if n, errno := api.SendTo(ufd, answer, from, fromPort); errno != hostos.OK || n != len(answer) {
		t.Fatalf("gated sendto: n=%d errno=%v", n, errno)
	}
	errno = hostos.EAGAIN
	for i := 0; i < 4000 && errno == hostos.EAGAIN; i++ {
		pumpS2(s, clk, 1)
		n, from, fromPort, errno = pstk.RecvFrom(pfd, buf)
	}
	if errno != hostos.OK || !bytes.Equal(buf[:n], answer) || from != localIP(0) || fromPort != 7778 {
		t.Fatalf("peer recvfrom: %q from %v:%d, errno %v", buf[:max(n, 0)], from, fromPort, errno)
	}
	if _, _, _, errno := api.RecvFrom(ufd, buf); errno != hostos.EAGAIN {
		t.Fatalf("gated recvfrom on an empty queue: %v, want EAGAIN", errno)
	}
	// Crossings were counted.
	if s.Local.IV.Crossings.Load() == 0 {
		t.Fatal("no domain crossings recorded")
	}
}

func TestGatedWriteCachesStagedBuffer(t *testing.T) {
	clk := sim.NewVClock()
	s, err := NewScenario2(clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	api := s.Apps[0]
	// Write to a nonexistent fd: the stack would load nothing, so nothing
	// is staged, and the crossing still returns the stack's errno.
	buf := make([]byte, 64)
	if _, errno := api.Write(999, buf); errno != hostos.EBADF {
		t.Fatalf("bad fd write: %v", errno)
	}
	// Same buffer again: same errno.
	if _, errno := api.Write(999, buf); errno != hostos.EBADF {
		t.Fatalf("bad fd write (cached): %v", errno)
	}
	// Oversized and empty writes are rejected client-side.
	if _, errno := api.Write(3, make([]byte, testbed.StageWriteSize+1)); errno != hostos.EINVAL {
		t.Fatalf("oversized write: %v", errno)
	}
	if _, errno := api.Write(3, nil); errno != hostos.EINVAL {
		t.Fatalf("empty write: %v", errno)
	}
}

// TestGatedWriteRestagesABufferRefilledInPlace: what crosses is what the
// caller's buffer holds at the call, not what an earlier call staged from
// the same buffer — a caller that rewrites one buffer between sends (the
// DNS client and its query id; a stream writer refilling its block while
// the socket refuses it, or after a short write) must not send the old
// bytes again.
func TestGatedWriteRestagesABufferRefilledInPlace(t *testing.T) {
	t.Run("datagram", func(t *testing.T) {
		clk := sim.NewVClock()
		s, err := NewScenario2(clk, 1)
		if err != nil {
			t.Fatal(err)
		}
		api, pstk := s.Apps[0], s.Peers[0].Env.Stk
		pfd, _ := pstk.Socket(fstack.SockDgram)
		if errno := pstk.Bind(pfd, fstack.IPv4Addr{}, 9999); errno != hostos.OK {
			t.Fatal(errno)
		}
		ufd, _ := api.Socket(fstack.SockDgram)
		msg := []byte("query 1")
		for _, id := range []byte{'1', '2'} {
			msg[len(msg)-1] = id
			if n, errno := api.SendTo(ufd, msg, peerIP(0), 9999); errno != hostos.OK || n != len(msg) {
				t.Fatalf("gated sendto %q: n=%d errno=%v", msg, n, errno)
			}
		}
		buf := make([]byte, 64)
		for _, want := range []string{"query 1", "query 2"} {
			n, errno := -1, hostos.EAGAIN
			for i := 0; i < 4000 && errno == hostos.EAGAIN; i++ {
				pumpS2(s, clk, 1)
				n, _, _, errno = pstk.RecvFrom(pfd, buf)
			}
			if errno != hostos.OK || string(buf[:n]) != want {
				t.Fatalf("peer read %q (errno %v), want %q", buf[:max(n, 0)], errno, want)
			}
		}
	})
	t.Run("stream refilled while refused", func(t *testing.T) {
		g := newGatedStream(t)
		buf := bytes.Repeat([]byte{'A'}, 64<<10)
		// Fill the socket with A blocks: the peer does not read.
		for i := 0; g.write(buf) != hostos.EAGAIN; i++ {
			if i == 4000 {
				t.Fatal("the socket never filled")
			}
			g.pump(1)
		}
		// Refill the block in place while the socket refuses it, then
		// re-offer the same buffer as the peer drains.
		for i := range buf {
			buf[i] = 'B'
		}
		if errno := g.write(buf); errno != hostos.EAGAIN {
			t.Fatalf("a write to a full socket: %v, want EAGAIN", errno)
		}
		for i := 0; bytes.Count(g.took, []byte{'B'}) < 2*len(buf); i++ {
			if i == 4000 {
				t.Fatal("the B blocks never left")
			}
			g.drain(1)
			g.write(buf)
		}
		g.check()
	})
	t.Run("stream refilled after a short write", func(t *testing.T) {
		g := newGatedStream(t)
		buf := bytes.Repeat([]byte{'A'}, 64<<10)
		// Offer A blocks until one is taken short, then refill the whole
		// block in place and offer the rest of it: every byte taken from
		// here on is a C.
		short := 0
		for i := 0; short == 0; i++ {
			if i == 4000 {
				t.Fatal("no write was short")
			}
			before := len(g.took)
			if g.write(buf) == hostos.OK && len(g.took)-before < len(buf) {
				short = len(g.took) - before
			}
			g.pump(1)
		}
		for i := range buf {
			buf[i] = 'C'
		}
		for rest, i := buf[short:], 0; len(rest) > 0; i++ {
			if i == 4000 {
				t.Fatal("the rest of the block never left")
			}
			before := len(g.took)
			g.write(rest)
			rest = rest[len(g.took)-before:]
			g.drain(1)
		}
		if c := bytes.Count(g.took, []byte{'C'}); c != len(buf)-short {
			t.Fatalf("%d C bytes taken, want the %d after the short write", c, len(buf)-short)
		}
		g.check()
	})
}

// gatedStream is one stream connection from Scenario 2's app cVM to a
// listener on its peer, with what the app's writes took and what the
// peer read.
type gatedStream struct {
	t         *testing.T
	s         *Setup
	clk       *sim.VClock
	api       *testbed.GatedAPI
	pstk      *fstack.Stack
	fd, pfd   int
	took, got []byte
	rbuf      []byte
}

func newGatedStream(t *testing.T) *gatedStream {
	t.Helper()
	clk := sim.NewVClock()
	s, err := NewScenario2(clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedStream{t: t, s: s, clk: clk, api: s.Apps[0], pstk: s.Peers[0].Env.Stk, rbuf: make([]byte, 64<<10)}
	lfd, _ := g.pstk.Socket(fstack.SockStream)
	if errno := g.pstk.Bind(lfd, fstack.IPv4Addr{}, 7000); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := g.pstk.Listen(lfd, 1); errno != hostos.OK {
		t.Fatal(errno)
	}
	g.fd, _ = g.api.Socket(fstack.SockStream)
	if errno := g.api.Connect(g.fd, peerIP(0), 7000); errno != hostos.EINPROGRESS {
		t.Fatalf("gated connect: %v", errno)
	}
	errno := hostos.EAGAIN
	for i := 0; i < 4000 && errno == hostos.EAGAIN; i++ {
		g.pump(1)
		g.pfd, _, _, errno = g.pstk.Accept(lfd)
	}
	if errno != hostos.OK {
		t.Fatalf("peer accept: %v", errno)
	}
	return g
}

func (g *gatedStream) pump(ticks int) { pumpS2(g.s, g.clk, ticks) }

// write offers src once, keeping what the stack took.
func (g *gatedStream) write(src []byte) hostos.Errno {
	n, errno := g.api.Write(g.fd, src)
	if errno == hostos.OK {
		g.took = append(g.took, src[:n]...)
	} else if errno != hostos.EAGAIN {
		g.t.Fatalf("gated write: %v", errno)
	}
	return errno
}

// drain lets the peer read for ticks driver ticks.
func (g *gatedStream) drain(ticks int) {
	for i := 0; i < ticks; i++ {
		g.pump(1)
		for {
			n, errno := g.pstk.Read(g.pfd, g.rbuf)
			if errno != hostos.OK || n == 0 {
				break
			}
			g.got = append(g.got, g.rbuf[:n]...)
		}
	}
}

// check drains the connection and holds the peer's stream to the app's.
func (g *gatedStream) check() {
	g.t.Helper()
	for i := 0; i < 4000 && len(g.got) < len(g.took); i++ {
		g.drain(1)
	}
	if !bytes.Equal(g.got, g.took) {
		g.t.Fatalf("the peer read %d bytes, the app's writes took %d: the streams differ", len(g.got), len(g.took))
	}
}

func TestScenario2RequiresValidAppCount(t *testing.T) {
	if _, err := NewScenario2(sim.NewVClock(), 0); err == nil {
		t.Fatal("0 apps accepted")
	}
	if _, err := NewScenario2(sim.NewVClock(), 3); err == nil {
		t.Fatal("3 apps accepted")
	}
}

func TestScenarioTopologies(t *testing.T) {
	clk := sim.NewVClock()
	bd, err := NewBaselineDual(clk)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd.Envs) != 2 || len(bd.Peers) != 2 || bd.Envs[0].CapMode() {
		t.Fatalf("baseline dual: %d envs, %d peers, cap=%v",
			len(bd.Envs), len(bd.Peers), bd.Envs[0].CapMode())
	}
	s1, err := NewScenario1(sim.NewVClock())
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Envs) != 2 || !s1.Envs[0].CapMode() || s1.Envs[0].CVM == nil {
		t.Fatal("scenario 1 must run two capability cVM envs")
	}
	// cVM windows are disjoint compartments.
	a, b := s1.Envs[0].CVM, s1.Envs[1].CVM
	if a.Base() < b.Base()+b.Size() && b.Base() < a.Base()+a.Size() {
		t.Fatal("cVM windows overlap")
	}
	s2, err := NewScenario2(sim.NewVClock(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Envs) != 1 || len(s2.Apps) != 2 || s2.Gates == nil {
		t.Fatal("scenario 2 shape wrong")
	}
	if s2.AppCVM(0) == s2.AppCVM(1) {
		t.Fatal("apps share a cVM")
	}
}

func TestEnvNowNSPaths(t *testing.T) {
	clk := sim.NewVClock()
	clk.Advance(123456789)
	b, err := NewBaselineSingle(clk)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: a direct syscall, free in the cost model. The kernel's
	// clock is the bed's, so an idle process reads virtual now.
	if t0, t1 := b.Envs[0].NowNS(), b.Envs[0].NowNS(); t0 != clk.Now() || t1 != t0 {
		t.Fatalf("baseline clock reads %d, %d at virtual %d", t0, t1, clk.Now())
	}
	s1, err := NewScenario1(clk)
	if err != nil {
		t.Fatal(err)
	}
	// A cVM's read crosses the trampoline and sees its own crossing: two
	// back-to-back reads are one crossing apart, and once the bed's clock
	// has passed the booking an idle cVM is back on it.
	c0, c1 := s1.Envs[0].NowNS(), s1.Envs[0].NowNS()
	if c0 != clk.Now()+sim.TrampolineNS || c1-c0 != sim.TrampolineNS {
		t.Fatalf("cVM clock reads %d, %d at virtual %d: want one and two crossings of %d ns", c0, c1, clk.Now(), sim.TrampolineNS)
	}
	if s1.Local.IV.Crossings.Load() != 2 {
		t.Fatal("cVM clock reads must cross the trampoline")
	}
	if other := s1.Envs[1].NowNS(); other != c0 {
		t.Fatalf("the second cVM reads %d: bookings are per compartment, want %d", other, c0)
	}
	clk.Advance(bwTick)
	if c2 := s1.Envs[0].NowNS(); c2 != clk.Now()+sim.TrampolineNS {
		t.Fatalf("a tick later the cVM reads %d, want %d: bookings lapse with the clock", c2, clk.Now()+sim.TrampolineNS)
	}
}

// TestAPIGatedStackRestart: a capability fault kills the stack compartment
// of a Scenario 2 layout, whose API the app cVM reaches only through
// gates. The supervisor revives it and re-seals the gates in place
// (StackGates.Rebind); the app's HTTP server, restarted from the hook on
// the very GatedAPI it was placed on, serves requests issued after the
// fault to a resilient client on the peer.
func TestAPIGatedStackRestart(t *testing.T) {
	const faultAt = int64(100e6)
	bed, err := testbed.Build(testbed.Spec{
		Clk:     sim.NewVClock(),
		Machine: testbed.MachineSpec{Name: "morello", Ports: 2, BusLimited: true},
		Compartments: []testbed.CompartmentSpec{{
			Name: "cvm1", CVM: true,
			Ifs:     []testbed.IfSpec{{Port: 0}},
			APIGate: true,
			AppCVMs: []string{"cvm2"},
		}},
		Peers: []testbed.PeerSpec{{Port: 0}},
		Faults: testbed.FaultSpec{
			CapFaults: []testbed.CapFaultSpec{{Env: "cvm1", At: []int64{faultAt}}},
			Restart:   testbed.RestartSpec{BackoffNS: s10BackoffNS, MaxBackoffNS: s10MaxBackoffNS, MaxRetries: s10MaxRetries},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gated := bed.Apps[0]
	site := gated.Site()
	if site.API != fstack.API(gated) {
		t.Fatalf("the app site's API is %T, want the GatedAPI", site.API)
	}
	srv := app.NewHTTPServer(fstack.IPv4Addr{}, s10Port, s10Backlog, 256)
	hooked := 0
	bed.RestartHook = func(e *testbed.Env, now int64) {
		if e != bed.Envs[0] {
			t.Errorf("restart hook for %s, want cvm1", e.Name)
		}
		hooked++
		srv.Restart(gated)
	}
	cli, err := app.NewHTTPClient(localIP(0), s10Port, 2, nil, 0, 300e6)
	if err != nil {
		t.Fatal(err)
	}
	cli.Resilient = true
	cli.TimeoutNS = s10TimeoutNS
	var before, after uint64
	cli.OnComplete = func(now, issued int64) {
		if issued > faultAt {
			after++
		} else {
			before++
		}
	}
	if err := measure(bed, "api-gated restart", []placed{
		{"server", site, srv},
		{"client", bed.Peers[0].Site(), cli},
	}, phase{budgetNS: 2_000e6, done: cli.Done}); err != nil {
		t.Fatal(err)
	}
	if bed.Super.Restarts != 1 || bed.Super.GiveUps != 0 || hooked != 1 {
		t.Fatalf("restarts %d, give-ups %d, hook ran %d times; want 1, 0, 1", bed.Super.Restarts, bed.Super.GiveUps, hooked)
	}
	if bed.Envs[0].CVM.Trapped() || bed.Apps[0] != gated {
		t.Fatalf("after the run: stack cVM trapped %v, app view replaced %v", bed.Envs[0].CVM.Trapped(), bed.Apps[0] != gated)
	}
	if before == 0 || after == 0 {
		t.Fatalf("completed %d requests issued before the fault and %d after, want both", before, after)
	}
	t.Logf("completed %d before the fault, %d after; lost %d, resets %d", before, after, cli.Lost(), cli.Resets())
}

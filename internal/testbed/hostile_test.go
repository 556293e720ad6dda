package testbed

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"testing"

	"repro/internal/cheri"
	"repro/internal/dpdk"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/intravisor"
	"repro/internal/sim"
)

// The hostile-caller tables: the code behind a gate runs in the callee's
// compartment on the caller's arguments, so an argument that makes it
// panic (or allocate without bound) is one compartment taking another
// down. Every target is called with every scalar argument in turn set to
// each of hostileValues, the others valid; the call must come back with
// an errno, and the compartment behind the gate must still serve a
// second, well-behaved caller afterwards.

// hostileValues are the scalars tried in every argument position;
// onePast, per target, is one more than the capability that crossed
// holds.
var hostileValues = []uint64{^uint64(0), 1 << 62, 1 << 40, 0}

// pump steps every loop of the bed for ticks driver ticks.
func pump(bed *Bed, clk *sim.VClock, ticks int) {
	for i := 0; i < ticks; i++ {
		for _, l := range bed.Loops() {
			l.RunOnce()
		}
		clk.Advance(5000)
	}
}

// hostileTarget is one gate with arguments it would accept.
type hostileTarget struct {
	name string
	gate *intravisor.Gate
	// args are valid arguments for socket fd (and epoll descriptor ep);
	// buf is the capability that crosses with them.
	args    func(fd, ep uint64) hostos.Args
	nargs   int
	buf     cheri.Cap
	onePast uint64
}

// hostileBuf is one row of the buffer-capability column: a capability
// a buffer-taking target is called with, its scalars all valid.
type hostileBuf struct {
	name string
	c    cheri.Cap
	// traps: the gate's re-derivation (BuildCap against the caller's
	// DDC) refuses c, which traps the caller and nobody else.
	traps bool
}

// storeTargets are the targets that write through the capability that
// crosses with them.
var storeTargets = map[string]bool{"accept": true, "read": true, "recvFrom": true, "epWait": true, "rx": true}

// copyTargets are the targets that move the buffer's bytes with Load
// and Store, which cross hugepage boundaries, rather than through one
// view of memory.
var copyTargets = map[string]bool{"tx": true}

// crossingRow names the row whose capability lies in the caller's own
// window but across a hugepage boundary: a target that takes one view
// of it is refused by physical memory and answers EFAULT.
const crossingRow = "hugepage-crossing"

// hostileBufs is the buffer column of target name, whose well-formed
// staging capability is good in caller's window: good itself, then
// copies of it that no target may act on as if they were good, then a
// capability of good's length over caller's own window that starts 4
// bytes below the hugepage boundary a hugepage above the window's base
// (Build starts every window on one), then victim, a capability over
// another compartment's staging area. The sealed copy follows the
// permission-less one: a gate does not unseal, so every target's use
// check refuses the two alike.
func hostileBufs(t *testing.T, name string, good, victim cheri.Cap, caller *intravisor.CVM) []hostileBuf {
	t.Helper()
	sealed, err := good.Seal(cheri.NewRoot(uint64(cheri.OTypeFirst), 1, cheri.PermSeal))
	if err != nil {
		t.Fatal(err)
	}
	none, err := good.AndPerms(0)
	if err != nil {
		t.Fatal(err)
	}
	rows := []hostileBuf{
		{"well-formed", good, false},
		{"untagged", cheri.NullCap.SetAddr(good.Addr()), false},
		{"permission-less", none, false},
		{"sealed", sealed, false},
	}
	if storeTargets[name] {
		ro, err := good.AndPerms(cheri.PermLoad)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, hostileBuf{"read-only", ro, false})
	}
	crossing, err := caller.DeriveBuf(caller.Base()+cheri.HugePageSize-4, good.Len())
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, hostileBuf{crossingRow, crossing, false})
	return append(rows, hostileBuf{"victim's", victim, true})
}

// window copies the bytes of c's memory window.
func window(t *testing.T, c *intravisor.CVM) []byte {
	t.Helper()
	w := make([]byte, c.Size())
	if err := c.Load(c.Base(), w); err != nil {
		t.Fatal(err)
	}
	return w
}

// callResult is what one gate call returned.
type callResult struct {
	r0    uint64
	errno hostos.Errno
}

// gotNothing reports whether a call was refused or handed nothing back.
func (c callResult) gotNothing() bool { return c.errno != hostos.OK || c.r0 == 0 }

// callBufColumn calls target name's gate from attacker with every row
// of its buffer column (hostileBufs; victimBuf is good's staging area
// in victim's window), once per socket state that states opens, the
// scalars valid. Each call must come back with an errno; the row the
// gate's re-derivation refuses traps the attacker (restarted after the
// call) with EFAULT, and no other row traps it; the sealed row answers as
// the permission-less one did; the hugepage-crossing row answers EFAULT
// wherever the well-formed row got something, and at least once, unless
// the target copies (it then reads the bytes there like any other
// buffer of the caller's own); and no byte of victim's window changes.
// A call that got nothing took nothing it could not hand back: a
// well-formed call right after it in the same state gets something
// exactly when the well-formed row did (a queued connection, queued
// frames).
func callBufColumn(t *testing.T, name string, gate *intravisor.Gate, good, victimBuf cheri.Cap, attacker, victim *intravisor.CVM,
	states func() (fds []int, args func(fd int) hostos.Args, done func())) {
	t.Helper()
	var wellFormed, permless []callResult
	crossingFaults := 0
	for _, row := range hostileBufs(t, name, good, victimBuf, attacker) {
		before := window(t, victim)
		fds, args, done := states()
		for i, fd := range fds {
			var got callResult
			got.r0, got.errno = gate.Call(attacker, args(fd), row.c)
			if testing.Verbose() {
				t.Logf("%s with the %s buffer, state %d: %d, %v", name, row.name, i, got.r0, got.errno)
			}
			switch {
			case attacker.Trapped() != row.traps:
				t.Fatalf("%s with the %s buffer, state %d: attacker trapped = %v, want %v (%v)", name, row.name, i, attacker.Trapped(), row.traps, got.errno)
			case row.traps && got.errno != hostos.EFAULT:
				t.Fatalf("%s with the %s buffer, state %d: %v, want EFAULT", name, row.name, i, got.errno)
			case row.name == "well-formed":
				wellFormed = append(wellFormed, got)
				continue
			case row.name == "permission-less":
				permless = append(permless, got)
			case row.name == "sealed" && got != permless[i]:
				t.Fatalf("%s with the sealed buffer, state %d: %d, %v, the permission-less one %d, %v",
					name, i, got.r0, got.errno, permless[i].r0, permless[i].errno)
			case row.name == crossingRow && !copyTargets[name]:
				if got.errno == hostos.EFAULT {
					crossingFaults++
				} else if !wellFormed[i].gotNothing() {
					t.Fatalf("%s with the %s buffer, state %d: %d, %v, want EFAULT", name, row.name, i, got.r0, got.errno)
				}
			}
			if row.traps {
				if err := attacker.Restart(); err != nil {
					t.Fatal(err)
				}
			}
			if got.gotNothing() {
				var again callResult
				again.r0, again.errno = gate.Call(attacker, args(fd), good)
				if want := wellFormed[i]; again.errno != want.errno || again.gotNothing() != want.gotNothing() {
					t.Fatalf("%s with the %s buffer, state %d, then well-formed: %d, %v; the well-formed row got %d, %v",
						name, row.name, i, again.r0, again.errno, want.r0, want.errno)
				}
			}
		}
		done()
		if !bytes.Equal(before, window(t, victim)) {
			t.Fatalf("%s with the %s buffer changed the victim's window", name, row.name)
		}
	}
	if crossingFaults == 0 && !copyTargets[name] {
		t.Fatalf("%s never refused the %s buffer", name, crossingRow)
	}
}

// udpEcho checks that the stack still carries a well-behaved caller's
// traffic: the peer's datagram reaches api's bound socket fd and the
// answer gets back.
func udpEcho(t *testing.T, bed *Bed, clk *sim.VClock, api fstack.API, fd int, port uint16, after string) {
	t.Helper()
	peer := bed.Peers[0].Env.Stk
	pfd, _ := peer.Socket(fstack.SockDgram)
	defer peer.Close(pfd)
	if errno := peer.Bind(pfd, fstack.IPv4Addr{}, 9999); errno != hostos.OK {
		t.Fatalf("after %s: peer bind: %v", after, errno)
	}
	ping := []byte("still there after " + after + "?")
	if _, errno := peer.SendTo(pfd, ping, LocalIP(0), port); errno != hostos.OK {
		t.Fatalf("after %s: peer send: %v", after, errno)
	}
	// await polls recv for the ping, past anything else that arrives (a
	// hostile tx may resend what the staging buffer still held).
	buf := make([]byte, 256)
	await := func(who string, recv func() (int, fstack.IPv4Addr, uint16, hostos.Errno)) (fstack.IPv4Addr, uint16) {
		t.Helper()
		for i := 0; i < 400; i++ {
			pump(bed, clk, 1)
			n, from, fromPort, errno := recv()
			if errno == hostos.OK && bytes.Equal(buf[:n], ping) {
				return from, fromPort
			}
			if errno != hostos.OK && errno != hostos.EAGAIN {
				t.Fatalf("after %s: %s: %v", after, who, errno)
			}
		}
		t.Fatalf("after %s: %s never saw the ping", after, who)
		return fstack.IPv4Addr{}, 0
	}
	from, fromPort := await("the well-behaved caller's socket", func() (int, fstack.IPv4Addr, uint16, hostos.Errno) { return api.RecvFrom(fd, buf) })
	if _, errno := api.SendTo(fd, ping, from, fromPort); errno != hostos.OK {
		t.Fatalf("after %s: echo send: %v", after, errno)
	}
	await("the peer", func() (int, fstack.IPv4Addr, uint16, hostos.Errno) { return peer.RecvFrom(pfd, buf) })
}

// TestHostileStackGateCaller: one application cVM throws the table at
// every exported F-Stack entry point, on a fresh socket, a listening one,
// a connected one with unread data and a bound datagram socket with a
// queued datagram; a second application cVM's socket on the same stack
// keeps echoing, and the attacker can name none of its descriptors. On
// the single stack and on the sharded API.
func TestHostileStackGateCaller(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) { hostileStackGateCaller(t, shards) })
	}
}

func hostileStackGateCaller(t *testing.T, shards int) {
	clk := sim.NewVClock()
	small := &fstack.TCPTuning{SndBufBytes: 16 << 10, RcvBufBytes: 16 << 10}
	bed, err := Build(Spec{
		Clk:     clk,
		Machine: MachineSpec{Name: "morello", Ports: 1},
		Compartments: []CompartmentSpec{{
			Name: "stack", CVM: true, Ifs: []IfSpec{{Port: 0}},
			APIGate: true, AppCVMs: []string{"attacker", "victim"},
			Stack: StackSpec{Shards: shards, Tuning: small},
		}},
		Peers: []PeerSpec{{Port: 0, Stack: StackSpec{Tuning: small}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	attacker, victim, g := bed.Apps[0], bed.Apps[1], bed.Gates
	peer := bed.Peers[0].Env.Stk

	const victimPort, peerPort = 7, 9000
	vfd, errno := victim.Socket(fstack.SockDgram)
	if errno == hostos.OK {
		errno = victim.Bind(vfd, fstack.IPv4Addr{}, victimPort)
	}
	if errno != hostos.OK {
		t.Fatalf("victim socket: %v", errno)
	}
	udpEcho(t, bed, clk, victim, vfd, victimPort, "nothing")

	plfd, _ := peer.Socket(fstack.SockStream)
	if errno := cmp.Or(peer.Bind(plfd, fstack.IPv4Addr{}, peerPort), peer.Listen(plfd, 64)); errno != hostos.OK {
		t.Fatalf("peer listener: %v", errno)
	}
	pufd, _ := peer.Socket(fstack.SockDgram)

	stage := func(off uint64, n int) cheri.Cap {
		c, err := attacker.stageCap(off, n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fdOnly := func(fd, _ uint64) hostos.Args { return hostos.Args{fd} }
	addr := func(fd, _ uint64) hostos.Args { return hostos.Args{fd, u64FromIP4(PeerIP(0)), peerPort} }
	targets := []hostileTarget{
		{"socket", g.socket, func(_, _ uint64) hostos.Args { return hostos.Args{fstack.SockStream} }, 1, cheri.NullCap, 1},
		{"bind", g.bind, func(fd, _ uint64) hostos.Args { return hostos.Args{fd, 0, 6000} }, 3, cheri.NullCap, 1},
		{"listen", g.listen, func(fd, _ uint64) hostos.Args { return hostos.Args{fd, 4} }, 2, cheri.NullCap, 1},
		{"accept", g.accept, fdOnly, 1, stage(stageAddrOff, sockaddrLen), sockaddrLen + 1},
		{"connect", g.connect, addr, 3, cheri.NullCap, 1},
		{"read", g.read, func(fd, _ uint64) hostos.Args { return hostos.Args{fd, 4096} }, 2, stage(stageReadOff, 4096), 4097},
		{"write", g.write, func(fd, _ uint64) hostos.Args { return hostos.Args{fd, 4096} }, 2, stage(stageWriteOff, 4096), 4097},
		{"sendTo", g.sendTo, func(fd, _ uint64) hostos.Args { return hostos.Args{fd, 512, u64FromIP4(PeerIP(0)), peerPort} }, 4,
			stage(stageWriteOff, 512), 513},
		{"recvFrom", g.recvFrom, func(fd, _ uint64) hostos.Args { return hostos.Args{fd, 512} }, 2,
			stage(stageReadOff, sockaddrLen+512), 513},
		{"close", g.closeG, fdOnly, 1, cheri.NullCap, 1},
		{"epCreate", g.epCreate, func(_, _ uint64) hostos.Args { return hostos.Args{} }, 1, cheri.NullCap, 1},
		{"epCtl", g.epCtl, func(fd, ep uint64) hostos.Args {
			return hostos.Args{ep, fstack.EpollCtlMod, fd, uint64(fstack.EPOLLIN)}
		}, 4, cheri.NullCap, 1},
		{"epWait", g.epWait, func(_, ep uint64) hostos.Args { return hostos.Args{ep, 8} }, 2,
			stage(stageEventsOff, 8*stageEventLen), 9},
	}

	// The isolation rows: the attacker names the victim's descriptors, a
	// bound datagram socket and an epoll instance watching it, at every
	// target that takes a descriptor. Both are another caller's, so each
	// call is EBADF, and the victim's socket keeps echoing.
	vep := victim.EpollCreate()
	if errno := victim.EpollCtl(vep, fstack.EpollCtlAdd, vfd, fstack.EPOLLIN); errno != hostos.OK {
		t.Fatalf("victim epoll: %v", errno)
	}
	for _, tg := range targets {
		if tg.name == "socket" || tg.name == "epCreate" {
			continue
		}
		a := tg.args(uint64(vfd), uint64(vep))
		if _, errno := tg.gate.Call(attacker.App, a, tg.buf); errno != hostos.EBADF {
			t.Errorf("%s(%v) on the victim's descriptors: %v, want EBADF", tg.name, a[:tg.nargs], errno)
		}
	}
	udpEcho(t, bed, clk, victim, vfd, victimPort, "calls on the victim's descriptors")

	port := uint16(20000)
	// sockets opens the four socket states afresh (the listener with a
	// connection queued on it) and registers them with a new epoll
	// descriptor; done closes what it opened.
	sockets := func() (fds [4]int, ep int, done func()) {
		must := func(errno hostos.Errno, what string) {
			t.Helper()
			if errno != hostos.OK {
				t.Fatalf("%s: %v", what, errno)
			}
		}
		var e0, e1, e2, e3 hostos.Errno
		fds[0], e0 = attacker.Socket(fstack.SockStream)
		fds[1], e1 = attacker.Socket(fstack.SockStream)
		fds[2], e2 = attacker.Socket(fstack.SockStream)
		fds[3], e3 = attacker.Socket(fstack.SockDgram)
		must(cmp.Or(e0, e1, e2, e3), "attacker sockets")
		port += 2
		must(cmp.Or(attacker.Bind(fds[1], fstack.IPv4Addr{}, port), attacker.Listen(fds[1], 4)), "attacker listener")
		must(attacker.Bind(fds[3], fstack.IPv4Addr{}, port+1), "attacker datagram bind")
		if errno := attacker.Connect(fds[2], PeerIP(0), peerPort); errno != hostos.EINPROGRESS {
			t.Fatalf("attacker connect: %v", errno)
		}
		if _, errno := peer.SendTo(pufd, []byte("queued"), LocalIP(0), port+1); errno != hostos.OK {
			t.Fatalf("peer datagram: %v", errno)
		}
		pcfd, _ := peer.Socket(fstack.SockStream)
		if errno := peer.Connect(pcfd, LocalIP(0), port); errno != hostos.EINPROGRESS {
			t.Fatalf("peer connect: %v", errno)
		}
		pafd, errno := -1, hostos.EAGAIN
		for i := 0; i < 400 && errno == hostos.EAGAIN; i++ {
			pump(bed, clk, 1)
			pafd, _, _, errno = peer.Accept(plfd)
		}
		must(errno, "peer accept")
		if _, errno := peer.Write(pafd, []byte("unread data")); errno != hostos.OK {
			t.Fatalf("peer write: %v", errno)
		}
		pump(bed, clk, 20)
		ep = attacker.EpollCreate()
		for _, fd := range fds {
			must(attacker.EpollCtl(ep, fstack.EpollCtlAdd, fd, fstack.EPOLLIN|fstack.EPOLLOUT), "attacker epoll add")
		}
		return fds, ep, func() {
			for _, fd := range fds {
				attacker.Close(fd) // a hostile close may have got there first
			}
			attacker.Close(ep)
			peer.Close(pafd)
			peer.Close(pcfd)
			pump(bed, clk, 20)
		}
	}

	states := [4]string{"fresh", "listening", "connected", "bound datagram"}
	for _, tg := range targets {
		for pos := 0; pos < tg.nargs; pos++ {
			for _, v := range append([]uint64{tg.onePast}, hostileValues...) {
				fds, ep, done := sockets()
				for i, fd := range fds {
					a := tg.args(uint64(fd), uint64(ep))
					a[pos] = v
					// Any errno will do, OK included (a zero backlog is a
					// backlog): the call returned, so nothing panicked.
					_, errno := tg.gate.Call(attacker.App, a, tg.buf)
					if testing.Verbose() {
						t.Logf("%s(%v) on a %s socket: %v", tg.name, a[:tg.nargs], states[i], errno)
					}
				}
				done()
			}
		}
		if tg.buf.Tag() {
			off := tg.buf.Base() - attacker.App.Base()
			vbuf, err := victim.App.DeriveBuf(victim.App.Base()+off, tg.buf.Len())
			if err != nil {
				t.Fatal(err)
			}
			callBufColumn(t, tg.name, tg.gate, tg.buf, vbuf, attacker.App, victim.App,
				func() ([]int, func(int) hostos.Args, func()) {
					fds, ep, done := sockets()
					return fds[:], func(fd int) hostos.Args { return tg.args(uint64(fd), uint64(ep)) }, done
				})
		}
		if bed.Envs[0].CVM.Trapped() {
			t.Fatalf("the stack compartment trapped on %s", tg.name)
		}
		udpEcho(t, bed, clk, victim, vfd, victimPort, tg.name)
	}
}

// TestHostileDevGateCaller: the same rows against the three device-gate
// targets, called as the stack compartment with frames queued for rx;
// the driver compartment keeps moving the frames of a victim application
// cVM's socket afterwards.
func TestHostileDevGateCaller(t *testing.T) {
	clk := sim.NewVClock()
	bed, err := Build(Spec{
		Clk:     clk,
		Machine: MachineSpec{Name: "morello", Ports: 1},
		Compartments: []CompartmentSpec{{
			Name: "stack", CVM: true, DeviceGate: true, Ifs: []IfSpec{{Port: 0}},
			APIGate: true, AppCVMs: []string{"victim"},
			Stack: StackSpec{Shards: 2},
		}},
		Peers: []PeerSpec{{Port: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env, victim := bed.Envs[0], bed.Apps[0]
	const port = 7
	fd, errno := victim.Socket(fstack.SockDgram)
	if errno == hostos.OK {
		errno = victim.Bind(fd, fstack.IPv4Addr{}, port)
	}
	if errno != hostos.OK {
		t.Fatalf("victim socket: %v", errno)
	}
	udpEcho(t, bed, clk, victim, fd, port, "nothing")

	g := env.devGates[0]
	// A staging capability with room for four frames, on queue 0, where
	// queueFrames's frames land.
	const frames = 4
	stage, err := env.CVM.DeriveBuf(env.CVM.Base()+devStageOff, frames*devStageSize/devBurstMax)
	if err != nil {
		t.Fatal(err)
	}
	burst := func(_, _ uint64) hostos.Args { return hostos.Args{0, frames} }
	// queueFrames puts three non-IP frames on queue 0 of the device.
	queueFrames := func() {
		p := bed.Local.Card.Port(0)
		for i := 0; i < 3; i++ {
			f := p.Arena().Alloc(60)
			clear(f)
			f[12], f[13] = 0x88, 0xB5 // a local experimental EtherType
			p.DeliverFrame(f, clk.Now())
		}
	}
	for _, tg := range []hostileTarget{
		{"rx", g.rx, burst, 2, stage, frames + 1},
		{"tx", g.tx, burst, 2, stage, frames + 1},
		{"poll", g.poll, func(_, _ uint64) hostos.Args { return hostos.Args{1} }, 1, cheri.NullCap, 2},
	} {
		for pos := 0; pos < tg.nargs; pos++ {
			for _, v := range append([]uint64{tg.onePast}, hostileValues...) {
				a := tg.args(0, 0)
				a[pos] = v
				_, errno := tg.gate.Call(env.CVM, a, tg.buf)
				if testing.Verbose() {
					t.Logf("%s(%v): %v", tg.name, a[:tg.nargs], errno)
				}
			}
		}
		if tg.buf.Tag() {
			vbuf, err := victim.stageCap(stageWriteOff, int(tg.buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			callBufColumn(t, tg.name, tg.gate, tg.buf, vbuf, env.CVM, victim.App,
				func() ([]int, func(int) hostos.Args, func()) {
					queueFrames()
					return []int{0}, func(int) hostos.Args { return tg.args(0, 0) }, func() {}
				})
		}
		udpEcho(t, bed, clk, victim, fd, port, tg.name)
	}
}

// TestHostileCallee: the other direction of the table. A compromised
// stack or driver compartment answers a well-formed call with any count
// or descriptor it likes, so the wrapper layer bounds every count that
// comes back by what it asked for, and every descriptor by the u32 an
// epoll event carries it in. For one application cVM (and one queue
// handle), each count- or descriptor-returning target is swapped for a
// callee that returns one past the bound and each of hostileValues: the
// socket wrappers answer a value past the bound with EIO (EpollCreate,
// which has no errno, with -1) and the device wrappers with 0 — never a
// panic, a slice past the caller's buffer or an mbuf freed twice — and a
// second application cVM behind the real gates keeps echoing.
func TestHostileCallee(t *testing.T) {
	clk := sim.NewVClock()
	bed, err := Build(Spec{
		Clk:     clk,
		Machine: MachineSpec{Name: "morello", Ports: 1},
		Compartments: []CompartmentSpec{{
			Name: "stack", CVM: true, DeviceGate: true, Ifs: []IfSpec{{Port: 0}},
			APIGate: true, AppCVMs: []string{"attacker", "victim"},
		}},
		Peers: []PeerSpec{{Port: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env, attacker, victim := bed.Envs[0], bed.Apps[0], bed.Apps[1]
	const port = 7
	fd, errno := victim.Socket(fstack.SockDgram)
	if errno == hostos.OK {
		errno = victim.Bind(fd, fstack.IPv4Addr{}, port)
	}
	if errno != hostos.OK {
		t.Fatalf("victim socket: %v", errno)
	}
	udpEcho(t, bed, clk, victim, fd, port, "nothing")

	// liar is a gate into the stack compartment whose target claims v.
	liar := func(v uint64) *intravisor.Gate {
		g, err := bed.Local.IV.NewGate(env.CVM, func(*intravisor.CVM, hostos.Args, cheri.Cap) (uint64, hostos.Errno) {
			return v, hostos.OK
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	buf, evs := make([]byte, 64), make([]fstack.Event, 4)
	for _, tg := range []struct {
		name  string
		asked uint64 // the largest count or descriptor the call can take
		swap  func(g *StackGates, liar *intravisor.Gate)
		call  func(a *GatedAPI) (int, hostos.Errno)
	}{
		{"read", uint64(len(buf)), func(g *StackGates, l *intravisor.Gate) { g.read = l },
			func(a *GatedAPI) (int, hostos.Errno) { return a.Read(3, buf) }},
		{"recvFrom", uint64(len(buf)), func(g *StackGates, l *intravisor.Gate) { g.recvFrom = l },
			func(a *GatedAPI) (int, hostos.Errno) { n, _, _, errno := a.RecvFrom(3, buf); return n, errno }},
		{"epWait", uint64(len(evs)), func(g *StackGates, l *intravisor.Gate) { g.epWait = l },
			func(a *GatedAPI) (int, hostos.Errno) { return a.EpollWait(3, evs) }},
		{"write", uint64(len(buf)), func(g *StackGates, l *intravisor.Gate) { g.write = l },
			func(a *GatedAPI) (int, hostos.Errno) { return a.Write(3, buf) }},
		{"sendTo", uint64(len(buf)), func(g *StackGates, l *intravisor.Gate) { g.sendTo = l },
			func(a *GatedAPI) (int, hostos.Errno) { return a.SendTo(3, buf, PeerIP(0), 9) }},
		{"socket", math.MaxInt32, func(g *StackGates, l *intravisor.Gate) { g.socket = l },
			func(a *GatedAPI) (int, hostos.Errno) { return a.Socket(fstack.SockStream) }},
		{"accept", math.MaxInt32, func(g *StackGates, l *intravisor.Gate) { g.accept = l },
			func(a *GatedAPI) (int, hostos.Errno) { n, _, _, errno := a.Accept(3); return n, errno }},
		{"epCreate", math.MaxInt32, func(g *StackGates, l *intravisor.Gate) { g.epCreate = l },
			func(a *GatedAPI) (int, hostos.Errno) {
				if fd := a.EpollCreate(); fd >= 0 {
					return fd, hostos.OK
				}
				return -1, hostos.EIO
			}},
	} {
		for _, v := range append([]uint64{tg.asked + 1}, hostileValues...) {
			gates := *bed.Gates
			tg.swap(&gates, liar(v))
			n, errno := tg.call(NewGatedAPI(&gates, attacker.App))
			if v > tg.asked && (n != -1 || errno != hostos.EIO) {
				t.Errorf("%s answered %d: the app got %d, %v; want -1, EIO", tg.name, v, n, errno)
			}
			if v <= tg.asked && (errno != hostos.OK || n != int(v)) {
				t.Errorf("%s answered %d: the app got %d, %v; want %d, OK", tg.name, v, n, errno, v)
			}
		}
		udpEcho(t, bed, clk, victim, fd, port, "a lying "+tg.name)
	}
	if attacker.App.Trapped() {
		t.Fatal("a lying callee trapped its caller")
	}

	out := make([]*dpdk.Mbuf, 4)
	for _, v := range append([]uint64{uint64(len(out)) + 1}, hostileValues...) {
		g := *env.devGates[0]
		g.rx = liar(v)
		if got := NewGatedEthDev(&g, env.CVM, env.Pool, 0).RxBurst(out); got != 0 {
			t.Errorf("rx answered %d: RxBurst returned %d frames, want 0", v, got)
		}
	}
	udpEcho(t, bed, clk, victim, fd, port, "a lying rx")
	for _, v := range append([]uint64{2}, hostileValues...) {
		g := *env.devGates[0]
		g.tx = liar(v)
		m, ok := env.Pool.Get()
		if !ok {
			t.Fatal("stack pool empty")
		}
		if _, err := m.Append(60); err != nil {
			t.Fatal(err)
		}
		if got := NewGatedEthDev(&g, env.CVM, env.Pool, 0).TxBurst([]*dpdk.Mbuf{m}); got != 0 {
			t.Errorf("tx answered %d for one frame: TxBurst returned %d, want 0", v, got)
		}
		m.Free() // refused, so still the caller's
	}
	udpEcho(t, bed, clk, victim, fd, port, "a lying tx")
}

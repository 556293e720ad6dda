package fstack

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/hostos"
)

// TestCrashLatchesErrnos pins the socket-layer semantics of a stack
// crash: in-flight connections latch ECONNRESET, listeners and UDP
// bindings latch ENETDOWN, and the latched errno — not EAGAIN — is
// what every blocked entry point returns afterward.
func TestCrashLatchesErrnos(t *testing.T) {
	e := newEnv(t, false)
	_, afd := e.connectPair(8080)

	// A UDP binding on the victim stack, alongside the TCP plane.
	ufd, errno := e.stkB.Socket(SockDgram)
	if errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := e.stkB.Bind(ufd, IPv4Addr{}, 5353); errno != hostos.OK {
		t.Fatal(errno)
	}

	e.stkB.Crash()

	if _, errno := e.stkB.Read(afd, make([]byte, 64)); errno != hostos.ECONNRESET {
		t.Fatalf("Read on crashed conn: %v, want ECONNRESET", errno)
	}
	if _, errno := e.stkB.Write(afd, []byte("x")); errno != hostos.ECONNRESET {
		t.Fatalf("Write on crashed conn: %v, want ECONNRESET", errno)
	}
	// The listener fd is 3 (first descriptor B created in connectPair).
	if _, _, _, errno := e.stkB.Accept(3); errno != hostos.ENETDOWN {
		t.Fatalf("Accept on crashed listener: %v, want ENETDOWN", errno)
	}
	if _, _, _, errno := e.stkB.RecvFrom(ufd, make([]byte, 64)); errno != hostos.ENETDOWN {
		t.Fatalf("RecvFrom on crashed UDP sock: %v, want ENETDOWN", errno)
	}
	if _, errno := e.stkB.SendTo(ufd, []byte("x"), IP4(10, 0, 0, 1), 53); errno != hostos.ENETDOWN {
		t.Fatalf("SendTo on crashed UDP sock: %v, want ENETDOWN", errno)
	}
	if !e.stkB.Down() {
		t.Fatal("Down() must report the crash")
	}
}

// TestCrashDropsEpollRegistrations: after a crash the interest sets
// are empty (re-adding an fd succeeds where a duplicate add would
// EINVAL), and a re-registered stale fd reports EPOLLERR.
func TestCrashDropsEpollRegistrations(t *testing.T) {
	e := newEnv(t, false)
	_, afd := e.connectPair(8080)
	epfd := e.stkB.EpollCreate()
	if errno := e.stkB.EpollCtl(epfd, EpollCtlAdd, afd, EPOLLIN); errno != hostos.OK {
		t.Fatal(errno)
	}

	e.stkB.Crash()

	evs := make([]Event, 8)
	if n, errno := e.stkB.EpollWait(epfd, evs); errno != hostos.OK || n != 0 {
		t.Fatalf("EpollWait after crash: n=%d errno=%v, want 0 events", n, errno)
	}
	// A fresh Add succeeds — proof the registration was fully dropped,
	// not just masked.
	if errno := e.stkB.EpollCtl(epfd, EpollCtlAdd, afd, EPOLLIN); errno != hostos.OK {
		t.Fatalf("re-Add after crash: %v (interest set not dropped?)", errno)
	}
	n, _ := e.stkB.EpollWait(epfd, evs)
	if n != 1 || evs[0].FD != afd || evs[0].Events&EPOLLERR == 0 {
		t.Fatalf("stale fd readiness: n=%d evs=%+v, want EPOLLERR on %d", n, evs[0], afd)
	}
}

// TestRestartServesAgain walks the whole recovery arc: crash, restart,
// listener re-established on the same port, the peer's stale
// connection reset by the restarted stack's RST, and a fresh
// connection served.
func TestRestartServesAgain(t *testing.T) {
	e := newEnv(t, false)
	cfd, _ := e.connectPair(8080)

	e.stkB.Crash()
	// An outage with the peer alive: B's poll is a no-op throughout.
	for i := 0; i < 20; i++ {
		e.tick()
	}
	e.stkB.Restart()

	// The supervisor re-runs the server's socket path: same port, new
	// fd — the old binding died with the crash.
	lfd, errno := e.stkB.Socket(SockStream)
	if errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := e.stkB.Bind(lfd, IPv4Addr{}, 8080); errno != hostos.OK {
		t.Fatalf("re-bind after restart: %v", errno)
	}
	if errno := e.stkB.Listen(lfd, 8); errno != hostos.OK {
		t.Fatal(errno)
	}

	// The peer discovers the death on its next transmission: the
	// restarted stack knows nothing of the tuple and answers RST.
	if _, errno := e.stkA.Write(cfd, []byte("ping")); errno != hostos.OK {
		t.Fatalf("client write: %v", errno)
	}
	e.pumpUntil(4000, "stale client conn reset", func() bool {
		_, errno := e.stkA.Read(cfd, make([]byte, 64))
		return errno == hostos.ECONNRESET
	})
	if errno := e.stkA.Close(cfd); errno != hostos.OK {
		t.Fatal(errno)
	}

	// A fresh connection works end to end.
	cfd2, errno := e.stkA.Socket(SockStream)
	if errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := e.stkA.Connect(cfd2, IP4(10, 0, 0, 2), 8080); errno != hostos.EINPROGRESS {
		t.Fatal(errno)
	}
	e.pumpUntil(4000, "post-restart accept", func() bool {
		_, _, _, errno := e.stkB.Accept(lfd)
		return errno == hostos.OK
	})
}

// TestRetainedBytesRecoverAcrossRestart: once the application closes
// its stale fds, the connection plane's retained memory returns to the
// pre-fault level — a crash/restart cycle leaks nothing from the
// arenas.
func TestRetainedBytesRecoverAcrossRestart(t *testing.T) {
	e := newEnv(t, false)

	// Warm the arenas with one full connect/close cycle so the
	// baseline includes the recycled structs. The client closes first
	// so B's side runs CLOSE_WAIT -> LAST_ACK -> closed and recycles
	// (closing B first would park its conn in TIME_WAIT instead).
	cfd, afd := e.connectPair(8080)
	e.stkA.Close(cfd)
	e.pumpUntil(4000, "peer FIN", func() bool {
		_, errno := e.stkB.Read(afd, make([]byte, 64))
		return errno == hostos.OK // EOF: n=0, errno OK
	})
	e.stkB.Close(afd)
	e.stkB.Close(3) // listener fd
	for i := 0; i < 400; i++ {
		e.tick()
	}
	base := e.stkB.RetainedBytes()

	// Fault cycle: same shape, but the teardown is a crash.
	cfd, afd = e.connectPair(8080)
	lfd := afd - 1 // connectPair's listener is the fd before the accept
	_ = cfd
	e.stkB.Crash()
	e.stkB.Restart()
	e.stkB.Close(afd)
	e.stkB.Close(lfd)
	for i := 0; i < 400; i++ {
		e.tick()
	}
	if got := e.stkB.RetainedBytes(); got != base {
		t.Fatalf("retained bytes after crash cycle: %d, want pre-fault %d", got, base)
	}
}

// crashScript parks 210 connections on stack B, each registered with one
// or two of three epoll instances (a listener and a datagram socket
// too), makes some of them readable, crashes B and reports everything a
// second run of the same script must reproduce: the counters, the
// retained bytes, the order the crash returned the registrations to the
// pool (each named by the descriptor and instance it belonged to), and
// what the instances report once the stale descriptors are registered
// again.
func crashScript(t *testing.T) (stats StackStats, retained uint64, freed []string, events []Event) {
	e := newEnv(t, false)
	tune := TCPTuning{SndBufBytes: 16384, RcvBufBytes: 16384}
	e.stkA.SetTCPTuning(tune)
	e.stkB.SetTCPTuning(tune)
	b := e.stkB
	lfd, _ := b.Socket(SockStream)
	b.Bind(lfd, IPv4Addr{}, 8080)
	b.Listen(lfd, 16)
	ufd, _ := b.Socket(SockDgram)
	b.Bind(ufd, IPv4Addr{}, 5353)
	eps := []int{b.EpollCreate(), b.EpollCreate(), b.EpollCreate()}
	add := func(ep, fd int, want uint32) {
		t.Helper()
		if errno := b.EpollCtl(eps[ep], EpollCtlAdd, fd, want); errno != hostos.OK {
			t.Fatalf("EpollCtl(%d, add %d): %v", ep, fd, errno)
		}
	}
	add(0, lfd, EPOLLIN)
	add(1, ufd, EPOLLIN)
	var afds []int
	for k := 0; k < 210; k++ {
		cfd, afd := establish(e, lfd, 8080, 0)
		add(k%3, afd, EPOLLIN)
		if k%2 == 0 {
			add((k+1)%3, afd, EPOLLOUT)
		}
		if k%7 == 0 {
			e.stkA.Write(cfd, []byte("unread at the crash"))
		}
		afds = append(afds, afd)
	}
	for i := 0; i < 50; i++ {
		e.tick()
	}

	// Name every registration before the crash recycles it.
	name := map[*epollReg]string{}
	b.fds.each(func(fd int, f *shardedFD) {
		if f.sk == nil {
			return
		}
		for r := f.sk.regs; r != nil; r = r.nextSk {
			for i, ep := range eps {
				if b.fds.get(ep).ep == r.ep {
					name[r] = fmt.Sprintf("%d@%d", fd, i)
				}
			}
		}
	})
	if len(name) != 2+210+105 {
		t.Fatalf("%d registrations before the crash, want %d", len(name), 2+210+105)
	}

	b.Crash()

	for r := b.regFree; r != nil; r = r.nextSk {
		if n, ok := name[r]; ok {
			freed = append(freed, n)
		}
	}
	stats = b.Stats()
	retained = b.RetainedBytes()
	for _, afd := range afds {
		add(afd%3, afd, EPOLLIN|EPOLLOUT)
	}
	add(0, lfd, EPOLLIN)
	evs := make([]Event, 512)
	for _, ep := range eps {
		n, errno := b.EpollWait(ep, evs)
		if errno != hostos.OK {
			t.Fatal(errno)
		}
		events = append(events, evs[:n]...)
	}
	return stats, retained, freed, events
}

// TestCrashIsDeterministic: Crash (and closeEpoll) walk the descriptor
// table, which used to be a Go map — a different order every run. The
// table walks in ascending descriptor order now, so two runs of one
// script agree on everything, down to the order registrations went back
// to their pool.
func TestCrashIsDeterministic(t *testing.T) {
	stats1, retained1, freed1, events1 := crashScript(t)
	stats2, retained2, freed2, events2 := crashScript(t)
	if stats1 != stats2 {
		t.Errorf("StackStats differ:\n %+v\n %+v", stats1, stats2)
	}
	if retained1 != retained2 {
		t.Errorf("RetainedBytes differ: %d vs %d", retained1, retained2)
	}
	if len(freed1) != 317 || !slices.Equal(freed1, freed2) {
		t.Errorf("registrations were recycled in different orders (%d, %d):\n %v\n %v", len(freed1), len(freed2), freed1, freed2)
	}
	if len(events1) != 211 || !slices.Equal(events1, events2) {
		t.Errorf("ready lists differ after re-registering (%d, %d events):\n %v\n %v", len(events1), len(events2), events1, events2)
	}
}

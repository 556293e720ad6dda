package fstack

import "testing"

func TestLoopRunOnceCountsIterations(t *testing.T) {
	e := newEnv(t, false)
	l := &Loop{Stk: e.stkA}
	calls := 0
	l.OnLoop = func(now int64) { calls++ }
	for i := 0; i < 5; i++ {
		l.RunOnce()
	}
	if calls != 5 {
		t.Fatalf("callback ran %d times", calls)
	}
	if l.Iterations() != 5 {
		t.Fatalf("iterations = %d", l.Iterations())
	}
}

func TestLoopCallbackSeesMonotonicTime(t *testing.T) {
	e := newEnv(t, false)
	l := &Loop{Stk: e.stkA}
	var last int64 = -1
	ok := true
	l.OnLoop = func(now int64) {
		if now < last {
			ok = false
		}
		last = now
	}
	for i := 0; i < 10; i++ {
		l.RunOnce()
		e.clk.Advance(1000)
	}
	if !ok {
		t.Fatal("time went backwards inside the loop")
	}
}

func TestLockedAPIMatchesStackAPI(t *testing.T) {
	// The LockedAPI surface must behave identically to the exported
	// locking API for a basic socket round trip.
	e := newEnv(t, false)
	api := LockedAPI{S: e.stkA}
	e.stkA.Lock()
	fd, errno := api.Socket(SockStream)
	if errno != 0 {
		t.Fatal(errno)
	}
	if errno := api.Bind(fd, IPv4Addr{}, 8080); errno != 0 {
		t.Fatal(errno)
	}
	if errno := api.Listen(fd, 2); errno != 0 {
		t.Fatal(errno)
	}
	ep := api.EpollCreate()
	if errno := api.EpollCtl(ep, EpollCtlAdd, fd, EPOLLIN); errno != 0 {
		t.Fatal(errno)
	}
	var evs [2]Event
	if n, errno := api.EpollWait(ep, evs[:]); errno != 0 || n != 0 {
		t.Fatalf("wait: n=%d errno=%v", n, errno)
	}
	if errno := api.Close(fd); errno != 0 {
		t.Fatal(errno)
	}
	e.stkA.Unlock()
}

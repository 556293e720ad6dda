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

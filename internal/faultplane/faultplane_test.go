package faultplane

import (
	"errors"
	"math"
	"testing"

	"repro/internal/obs"
)

func TestPlaneFiresInOrder(t *testing.T) {
	var got []int
	mk := func(id int, at int64) Event {
		return Event{At: at, Fire: func(now int64) {
			if now < at {
				t.Errorf("event %d fired at %d, before its instant %d", id, now, at)
			}
			got = append(got, id)
		}}
	}
	// Deliberately unsorted, with a tie (2 and 3 at t=50) whose given
	// order must survive the sort.
	p := NewPlane([]Event{mk(1, 100), mk(2, 50), mk(3, 50), mk(4, 200)})

	if d := p.NextDeadline(0); d != 50 {
		t.Fatalf("NextDeadline = %d, want 50", d)
	}
	p.Step(49)
	if len(got) != 0 {
		t.Fatalf("fired early: %v", got)
	}
	p.Step(120)
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("order after t=120: %v, want [2 3 1]", got)
	}
	if d := p.NextDeadline(120); d != 200 {
		t.Fatalf("NextDeadline = %d, want 200", d)
	}
	p.Step(200)
	if p.idx != len(p.evs) || p.NextDeadline(200) != math.MaxInt64 {
		t.Fatalf("schedule not exhausted: remaining=%d", len(p.evs)-p.idx)
	}
}

// fakeTarget scripts a compartment: trap on demand, optionally refuse
// to come back.
type fakeTarget struct {
	trapped   bool
	restarts  int
	restartAt []int64
	fail      bool
}

func (f *fakeTarget) Trapped() bool { return f.trapped }
func (f *fakeTarget) Restart(now int64) error {
	if f.fail {
		return errors.New("loader refused")
	}
	f.trapped = false
	f.restarts++
	f.restartAt = append(f.restartAt, now)
	return nil
}

func TestSupervisorBackoffDoubles(t *testing.T) {
	pol := Policy{BackoffNS: 100, MaxBackoffNS: 400, MaxRetries: 10}
	sup := NewSupervisor(pol)
	ft := &fakeTarget{}
	sup.Watch(ft, 7)

	// Trap -> restart cycle four times; expected backoffs 100, 200,
	// 400, 400 (capped).
	now := int64(1000)
	wantBackoff := []int64{100, 200, 400, 400}
	for i, b := range wantBackoff {
		ft.trapped = true
		sup.Step(now)
		if d := sup.NextDeadline(now); d != now+b {
			t.Fatalf("fault %d: restart scheduled at %d, want %d (+%d)", i, d, now+b, b)
		}
		sup.Step(now + b - 1)
		if !ft.trapped {
			t.Fatalf("fault %d: restarted before the backoff elapsed", i)
		}
		sup.Step(now + b)
		if ft.trapped {
			t.Fatalf("fault %d: not restarted at the deadline", i)
		}
		now += b + 1000
	}
	if sup.Restarts != 4 || sup.GiveUps != 0 {
		t.Fatalf("Restarts=%d GiveUps=%d", sup.Restarts, sup.GiveUps)
	}
	if d := sup.NextDeadline(now); d != math.MaxInt64 {
		t.Fatalf("idle supervisor NextDeadline = %d", d)
	}
}

func TestSupervisorGivesUp(t *testing.T) {
	sup := NewSupervisor(Policy{BackoffNS: 10, MaxBackoffNS: 10, MaxRetries: 2})
	ft := &fakeTarget{}
	sup.Watch(ft, 1)

	for i := 0; i < 2; i++ {
		ft.trapped = true
		sup.Step(int64(1000 * (i + 1)))
		sup.Step(int64(1000*(i+1)) + 10)
	}
	ft.trapped = true
	sup.Step(5000)
	if !sup.targets[0].gaveUp || sup.GiveUps != 1 {
		t.Fatalf("gaveUp=%v GiveUps=%d, want abandoned after MaxRetries=2", sup.targets[0].gaveUp, sup.GiveUps)
	}
	// Abandoned targets are inert: no deadline, no further restarts.
	if d := sup.NextDeadline(5000); d != math.MaxInt64 {
		t.Fatalf("abandoned target still scheduled: %d", d)
	}
	sup.Step(10000)
	if ft.restarts != 2 {
		t.Fatalf("restarts = %d, want 2", ft.restarts)
	}
}

func TestSupervisorFailedRestartIsTerminal(t *testing.T) {
	sup := NewSupervisor(Policy{BackoffNS: 10, MaxBackoffNS: 10, MaxRetries: 5})
	ft := &fakeTarget{fail: true}
	sup.Watch(ft, 1)
	ft.trapped = true
	sup.Step(100)
	sup.Step(110)
	if sup.GiveUps != 1 || sup.Restarts != 0 || !sup.targets[0].gaveUp {
		t.Fatalf("GiveUps=%d Restarts=%d", sup.GiveUps, sup.Restarts)
	}
}

func TestSupervisorTraceEvents(t *testing.T) {
	tr := obs.NewTrace(16)
	sup := NewSupervisor(Policy{BackoffNS: 100, MaxBackoffNS: 100, MaxRetries: 5})
	sup.SetTrace(tr)
	ft := &fakeTarget{}
	sup.Watch(ft, 3)

	ft.trapped = true
	sup.Step(1000)
	sup.Step(1100)

	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want fault+restart", len(evs))
	}
	if evs[0].Type != obs.EvFault || evs[0].TS != 1000 || evs[0].Src != 3 ||
		evs[0].A != obs.FaultCap || evs[0].B != 1 {
		t.Fatalf("fault event = %+v", evs[0])
	}
	if evs[1].Type != obs.EvRestart || evs[1].TS != 1100 || evs[1].Src != 3 ||
		evs[1].B != 100 {
		t.Fatalf("restart event = %+v (want downtime B=100)", evs[1])
	}
	if at := sup.targets[0].trappedAt; at != 1000 {
		t.Fatalf("trappedAt = %d", at)
	}
}

func TestExpScheduleDeterministicAndBounded(t *testing.T) {
	a := ExpSchedule(42, 1e6, 1000, 50e6)
	b := ExpSchedule(42, 1e6, 1000, 50e6)
	if len(a) == 0 {
		t.Fatal("empty schedule for 50 MTBFs of span")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
	prev := int64(1000)
	for _, at := range a {
		if at <= prev || at >= 50e6 {
			t.Fatalf("instant %d out of order or bounds (prev %d)", at, prev)
		}
		prev = at
	}
	if c := ExpSchedule(43, 1e6, 1000, 50e6); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

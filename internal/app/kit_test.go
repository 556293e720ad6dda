package app

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
)

// stepper is the part of core's endpoint contract the kit implements.
type stepper interface {
	Step(api API, now int64)
	NextDeadline(now int64) int64
	Err() hostos.Errno
}

func ready(events uint32, fds ...int) (evs []fstack.Event) {
	for _, fd := range fds {
		evs = append(evs, fstack.Event{FD: fd, Events: events})
	}
	return evs
}

// setups drives each of the ten endpoints through its set-up
// sequence — every call up to the first exchange, where any failing
// call is the endpoint's failure — over the scripted API, and pins the
// order of the calls: descriptor numbers follow from it, and the
// goldens from those. The fake hands out sockets from 10 and accepted
// connections from 100.
var setups = []struct {
	name  string
	calls string
	drive func(api *fakeAPI) stepper
}{
	{"iperf client", "EpollCreate Socket Bind EpollCtl Connect EpollWait Write", func(api *fakeAPI) stepper {
		api.events = [][]fstack.Event{ready(fstack.EPOLLOUT, 10)}
		api.room = 1000 // a short write ends the client's write loop
		c := NewIperfClient(fstack.IPv4Addr{}, 5201, 1e6)
		c.LocalPort = 4000
		for now := int64(0); now < 3; now++ {
			c.Step(api, now)
		}
		return c
	}},
	{"iperf server", "EpollCreate Socket Bind Listen EpollCtl EpollWait Accept EpollCtl Read Read", func(api *fakeAPI) stepper {
		api.events = [][]fstack.Event{ready(fstack.EPOLLIN, 10)}
		api.accepts[10] = []int{100}
		api.reads[100] = [][]byte{make([]byte, 64)}
		s := NewIperfServer(fstack.IPv4Addr{}, 5201)
		for now := int64(0); now < 3; now++ {
			s.Step(api, now)
		}
		return s
	}},
	{"churn server", "EpollCreate Socket Bind Listen EpollCtl Socket Bind Listen EpollCtl EpollWait Accept Accept Accept EpollCtl Accept", func(api *fakeAPI) stepper {
		api.events = [][]fstack.Event{ready(fstack.EPOLLIN, 10, 11)}
		api.accepts[10], api.accepts[11] = []int{100}, []int{101}
		s := NewChurnServer(fstack.IPv4Addr{}, 5801, 5901, 1, 16)
		s.Step(api, 0)
		s.Step(api, 1)
		return s
	}},
	{"churn client", "EpollCreate EpollWait Socket Bind EpollCtl Connect EpollWait EpollCtl EpollWait Socket Bind EpollCtl Connect EpollWait Write Close", func(api *fakeAPI) stepper {
		api.events = [][]fstack.Event{nil, ready(fstack.EPOLLOUT, 10), nil, ready(fstack.EPOLLOUT, 11)}
		c, _ := NewChurnClient(fstack.IPv4Addr{}, 5801, 5901, 1, 1, 1000, 2e6)
		for now := int64(0); now < 3; now++ {
			c.Step(api, now) // one idle connection opened, then held
		}
		c.StartChurn(3)
		c.Step(api, 3+1e6) // the first pace slot: one short flow opened
		c.Step(api, 4+1e6) // and, established, written and closed
		return c
	}},
	{"http server", "EpollCreate Socket Bind Listen EpollCtl EpollWait Accept EpollCtl Accept", func(api *fakeAPI) stepper {
		api.events = [][]fstack.Event{ready(fstack.EPOLLIN, 10)}
		api.accepts[10] = []int{100}
		s := NewHTTPServer(fstack.IPv4Addr{}, 80, 8, 5)
		s.Step(api, 0)
		s.Step(api, 1)
		return s
	}},
	{"http client", "EpollCreate Socket Bind EpollCtl Connect Socket Bind EpollCtl Connect EpollWait EpollCtl EpollCtl EpollWait Write Write", func(api *fakeAPI) stepper {
		api.events = [][]fstack.Event{ready(fstack.EPOLLOUT, 10, 11)}
		c, _ := NewHTTPClient(fstack.IPv4Addr{}, 80, 2, []uint16{4000, 4001}, 0, 1e6)
		for now := int64(0); now < 3; now++ {
			c.Step(api, now)
		}
		return c
	}},
	{"dns server", "EpollCreate Socket Bind EpollCtl EpollWait RecvFrom SendTo RecvFrom", func(api *fakeAPI) stepper {
		api.events = [][]fstack.Event{ready(fstack.EPOLLIN, 10)}
		api.dgrams = []fakeDgram{{data: make([]byte, dnsQueryLen), port: 40000}}
		s := NewDNSServer(fstack.IPv4Addr{}, 53)
		s.Step(api, 0)
		s.Step(api, 1)
		return s
	}},
	{"dns client", "Socket Bind RecvFrom SendTo", func(api *fakeAPI) stepper {
		c, _ := NewDNSClient(fstack.IPv4Addr{}, 53, 4000, 0, 1, 1e6, 500, 2)
		c.Step(api, 0)
		c.Step(api, 1)
		return c
	}},
	{"write probe", "EpollCreate Socket EpollCtl Connect EpollWait Write Close", func(api *fakeAPI) stepper {
		api.events = [][]fstack.Event{ready(fstack.EPOLLOUT, 10)}
		p := NewWriteProbe(fstack.IPv4Addr{}, 5301, 1, 20_000, 64, func() int64 { return 0 })
		p.Step(api, 0)
		p.Step(api, 1)
		p.Start(2)
		p.Step(api, 2) // the one timed write; done, closed
		return p
	}},
	{"hammer", "EpollCreate Socket EpollCtl Connect EpollWait Write Write", func(api *fakeAPI) stepper {
		api.events = [][]fstack.Event{ready(fstack.EPOLLOUT, 10)}
		api.room = 64 // one payload, then refused
		h := NewHammer(fstack.IPv4Addr{}, 5302, 64)
		h.Step(api, 0) // not started: no call
		h.Start()
		for now := int64(1); now < 4; now++ {
			h.Step(api, now)
		}
		return h
	}},
}

// TestSetupFailureLatches fails, in turn, every call of every
// endpoint's set-up sequence: the endpoint's Err is that errno, it makes
// no further API call however often it is stepped, and it holds no
// deadline — a failed endpoint must not pin the driver at `now`.
func TestSetupFailureLatches(t *testing.T) {
	for _, tc := range setups {
		clean := newFakeAPI()
		if ep := tc.drive(clean); ep.Err() != hostos.OK {
			t.Fatalf("%s: clean run failed: %v", tc.name, ep.Err())
		}
		if got := strings.Join(clean.calls, " "); got != tc.calls {
			t.Errorf("%s: set-up sequence\n  got  %s\n  want %s", tc.name, got, tc.calls)
		}
		for k, name := range clean.calls {
			if name == "EpollCreate" || name == "Close" {
				continue // cannot fail; failure ignored by design
			}
			api := newFakeAPI()
			api.failAt, api.failWith = k+1, hostos.ENOMEM
			ep := tc.drive(api)
			ep.Step(api, 5e6)
			if ep.Err() != hostos.ENOMEM {
				t.Errorf("%s, %s (call %d) failing: Err() = %v, want ENOMEM", tc.name, name, k+1, ep.Err())
			}
			if len(api.calls) != k+1 {
				t.Errorf("%s, %s (call %d) failing: calls went on: %v", tc.name, name, k+1, api.calls[k+1:])
			}
			if d := ep.NextDeadline(5e6); d != math.MaxInt64 {
				t.Errorf("%s, %s (call %d) failing: deadline %d, want none", tc.name, name, k+1, d)
			}
		}
	}
}

// TestWriteProbeScript drives the probe of Figs. 4-6 over the scripted
// API on the driver's 5 µs grid: exactly Iterations samples, each the
// difference of the two clock reads around its write; a refused write is
// retried an interval later and never sampled; consecutive timed writes
// are IntervalNS apart; a connected probe asks for every Step until it is
// started, then NextDeadline announces each next write, and nothing once
// done.
func TestWriteProbeScript(t *testing.T) {
	const interval, tick = 20_000, 5_000
	api := newFakeAPI()
	api.events = [][]fstack.Event{ready(fstack.EPOLLOUT, 10)}
	api.room = 100 // the first timed write fits, the second is refused
	var now, reads int64
	clock := func() int64 { reads++; return now + 40*reads }
	p := NewWriteProbe(fstack.IPv4Addr{}, 5301, 3, interval, 100, clock)
	for ; now < 2*tick; now += tick {
		p.Step(api, now)
	}
	if !p.Connected() || p.NextDeadline(now) != now {
		t.Fatalf("connected %v, deadline %d at %d: a connected probe waits for Start, asking for every Step", p.Connected(), p.NextDeadline(now), now)
	}
	if p.Step(api, now); reads != 0 {
		t.Fatal("the probe read its clock before Start")
	}
	p.Start(now)
	var writesAt []int64
	for ; !p.Done() && now < 100*tick; now += tick {
		announced := p.NextDeadline(now)
		before := len(api.calls)
		p.Step(api, now)
		if wrote := len(api.calls) > before; wrote != (announced <= now) {
			t.Fatalf("at %d: wrote %v, NextDeadline had announced %d", now, wrote, announced)
		} else if wrote {
			if writesAt = append(writesAt, now); len(writesAt) == 2 {
				api.room = -1 // after the refusal, room again
			}
		}
	}
	if want := []int64{2 * tick, 2*tick + interval, 2*tick + 2*interval, 2*tick + 3*interval}; !slices.Equal(writesAt, want) {
		t.Errorf("timed writes at %v, want %v: an interval apart, the refused one retried", writesAt, want)
	}
	if got := p.Samples(); !slices.Equal(got, []int64{40, 40, 40}) || reads != 8 {
		t.Errorf("samples %v from %d clock reads, want three of 40 ns from eight: the refused write is not sampled", got, reads)
	}
	if !p.Done() || !api.closed[10] || p.NextDeadline(now) != math.MaxInt64 || p.Err() != hostos.OK {
		t.Errorf("done %v, closed %v, deadline %d, err %v after the last sample", p.Done(), api.closed[10], p.NextDeadline(now), p.Err())
	}
}

// TestWriteProbeDefersToItsOwnClock: a write that cost the probe's thread
// more than the interval puts the next one off until the thread is free,
// and NextDeadline announces that instant, not the interval's.
func TestWriteProbeDefersToItsOwnClock(t *testing.T) {
	api := newFakeAPI()
	api.events = [][]fstack.Event{ready(fstack.EPOLLOUT, 10)}
	var now, reads int64
	clock := func() int64 { reads++; return now + 30_000*(reads-1) } // t0 = now, t1 = now + 30 µs
	p := NewWriteProbe(fstack.IPv4Addr{}, 5301, 2, 20_000, 100, clock)
	p.Step(api, 0)
	p.Step(api, 0)
	p.Start(0)
	p.Step(api, 0)
	if got := p.NextDeadline(0); got != 30_000 {
		t.Fatalf("next write announced for %d, want 30000: the thread is booked until then", got)
	}
	now = 25_000
	if p.Step(api, now); len(p.Samples()) != 1 {
		t.Fatalf("%d samples at 25 µs: the second write ran before the thread was free", len(p.Samples()))
	}
}

// TestPacerDueAgreesWithNext walks schedules — integral and fractional
// slot lengths, on and off the driver's 5 µs grid — over visiting
// patterns from every tick to sparse: due issues slots exactly when next
// said one was due, every consumed slot had come due and lies before the
// end, none is left behind, and past the end the schedule is silent.
func TestPacerDueAgreesWithNext(t *testing.T) {
	for _, rate := range []float64{1000, 12_500, 50_000, 1e6 / 3, 6666.67, 0} {
		for _, stride := range []int64{5_000, 35_000, 1_234_567} {
			const start, dur = 40_000, 3_000_000
			p := pacer{rate: rate, start: start, end: start + dur}
			for now := int64(start); now < start+dur+2*stride; now += stride {
				announced := p.next(now)
				first := p.n + 1
				k := p.due(now)
				if (k > 0) != (rate > 0 && announced <= now && now < p.end) {
					t.Fatalf("rate %v at %d: due issued %d slots, next had said %d", rate, now, k, announced)
				}
				for s := first; s < first+k; s++ {
					if at := p.slot(s); at > now || at >= p.end {
						t.Fatalf("rate %v at %d: slot %d consumed, due at %d (end %d)", rate, now, s, at, p.end)
					}
				}
				switch after := p.next(now); {
				case now >= p.end && after != math.MaxInt64:
					t.Fatalf("rate %v at %d: past the end, next = %d", rate, now, after)
				case now < p.end && (after <= now || after > p.end):
					t.Fatalf("rate %v at %d: next = %d, want in (now, end %d]", rate, now, after, p.end)
				}
			}
		}
	}
}

// TestDeferredCountsSlotsSkippedAtTheCap storms a server that never
// answers: the first maxInflight slots open a handshake each, and every
// later slot is counted deferred, exactly once, however often the client
// is stepped while it sits at the cap.
func TestDeferredCountsSlotsSkippedAtTheCap(t *testing.T) {
	for _, stride := range []int64{5_000, 50_000} {
		api := newFakeAPI()
		c, err := NewChurnClient(fstack.IPv4Addr{}, 5801, 5901, 1, 0, 1e6, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		c.Step(api, 0)
		c.Step(api, 0)
		if !c.PreloadDone() {
			t.Fatal("an empty preload should be done at once")
		}
		c.StartChurn(0)
		for now := int64(0); now < 1e6; now += stride {
			c.Step(api, now)
		}
		// Slots 1…999 come due before the end; slot 1000 falls on it.
		last := uint64(1e6-stride) / 1000
		if got := uint64(len(c.inflight)); got != maxInflight || c.Deferred() != last-maxInflight {
			t.Errorf("stride %d: %d handshakes open, %d slots deferred; want %d and %d",
				stride, got, c.Deferred(), maxInflight, last-maxInflight)
		}
	}
}

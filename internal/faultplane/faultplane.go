// Package faultplane is the deterministic fault-injection and recovery
// subsystem. It has two halves:
//
//   - Plane: a pre-computed schedule of fault events on the virtual
//     timeline (link carrier flaps, NIC queue stalls, DMA-fault bursts,
//     injected capability faults). Each event is a closure fired at an
//     exact virtual instant; the schedule participates in the driver's
//     event-driven leaping through NextDeadline, so a fault lands on the
//     same nanosecond every run regardless of host parallelism.
//
//   - Supervisor: the Intravisor-side restart policy over trapped
//     compartments (the paper's Fig. 3 recovery arc). It polls its
//     targets, schedules a restart after an exponential backoff, and
//     gives up after a bounded number of retries — counting restarts,
//     give-ups, and per-fault downtime along the way.
//
// Everything here runs in virtual time on the driver's thread; there is
// no wall-clock, no goroutine, and no randomness at run time (schedules
// are materialized up front from a seed).
package faultplane

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/obs"
)

// Event is one scheduled fault: Fire runs exactly once, at the first
// step whose virtual time reaches At.
type Event struct {
	At   int64
	Fire func(now int64)
}

// Plane replays a fault schedule against virtual time.
type Plane struct {
	evs []Event
	idx int
}

// NewPlane orders the schedule. Events at equal instants keep their
// given order (stable), so co-scheduled faults fire deterministically.
func NewPlane(evs []Event) *Plane {
	s := make([]Event, len(evs))
	copy(s, evs)
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	return &Plane{evs: s}
}

// Step fires every event due at or before now. Nil-safe: a bed without
// a fault schedule steps a nil plane for free.
func (p *Plane) Step(now int64) {
	if p == nil {
		return
	}
	for p.idx < len(p.evs) && p.evs[p.idx].At <= now {
		p.evs[p.idx].Fire(now)
		p.idx++
	}
}

// NextDeadline reports the next scheduled instant, or MaxInt64 when the
// schedule is exhausted (or the plane is nil).
func (p *Plane) NextDeadline(now int64) int64 {
	if p == nil || p.idx >= len(p.evs) {
		return math.MaxInt64
	}
	return p.evs[p.idx].At
}

// Policy is the supervisor's restart discipline.
type Policy struct {
	// BackoffNS is the delay before the first restart attempt.
	BackoffNS int64
	// MaxBackoffNS caps the exponential growth.
	MaxBackoffNS int64
	// MaxRetries bounds restarts per target; a fault beyond it is a
	// give-up — the compartment stays dead and is counted.
	MaxRetries int
}

// DefaultPolicy matches the scenario defaults: 50 ms initial backoff
// doubling to a 1 s cap, 16 restarts before giving up.
func DefaultPolicy() Policy {
	return Policy{BackoffNS: 50e6, MaxBackoffNS: 1e9, MaxRetries: 16}
}

// backoff computes the delay before restart attempt n (0-based).
func (p Policy) backoff(n int) int64 {
	d := p.BackoffNS
	for i := 0; i < n; i++ {
		d *= 2
		if d >= p.MaxBackoffNS {
			return p.MaxBackoffNS
		}
	}
	if d > p.MaxBackoffNS {
		d = p.MaxBackoffNS
	}
	return d
}

// Target is a restartable compartment. Trapped is the poll predicate;
// Restart re-creates the compartment's world (cVM window, gates, stack
// state, listeners) at the given virtual instant.
type Target interface {
	Trapped() bool
	Restart(now int64) error
}

// supTarget is the supervisor's per-target state machine: running
// (restartAt == 0, not trapped) -> backing off (restartAt set) ->
// running again, or dead (gaveUp).
type supTarget struct {
	t         Target
	src       uint16
	retries   int
	trappedAt int64
	restartAt int64
	gaveUp    bool
}

// Supervisor applies a Policy over a set of targets. Step it from the
// driver's app phase; it detects traps the instant they occur (fault
// events run in the same virtual step) and schedules restarts on the
// timeline via NextDeadline.
type Supervisor struct {
	pol     Policy
	targets []*supTarget

	// Restarts counts completed restarts; GiveUps counts targets
	// abandoned after MaxRetries.
	Restarts int
	GiveUps  int

	tr *obs.Trace
}

// NewSupervisor builds a supervisor with the given policy.
func NewSupervisor(pol Policy) *Supervisor {
	return &Supervisor{pol: pol}
}

// SetTrace attaches a flight recorder. Call before traffic.
func (s *Supervisor) SetTrace(tr *obs.Trace) { s.tr = tr }

// Watch registers a target; src labels its trace events.
func (s *Supervisor) Watch(t Target, src uint16) {
	s.targets = append(s.targets, &supTarget{t: t, src: src})
}

// Step advances every target's state machine to now. Nil-safe.
func (s *Supervisor) Step(now int64) {
	if s == nil {
		return
	}
	for _, st := range s.targets {
		if st.gaveUp {
			continue
		}
		if st.restartAt != 0 {
			if now < st.restartAt {
				continue
			}
			if err := st.t.Restart(now); err != nil {
				// A restart that cannot complete is terminal.
				st.gaveUp = true
				s.GiveUps++
				st.restartAt = 0
				continue
			}
			s.Restarts++
			s.tr.Record(now, obs.EvRestart, st.src, int64(st.retries), now-st.trappedAt, 0)
			st.restartAt = 0
			continue
		}
		if !st.t.Trapped() {
			continue
		}
		if st.retries >= s.pol.MaxRetries {
			st.gaveUp = true
			s.GiveUps++
			continue
		}
		st.trappedAt = now
		st.restartAt = now + s.pol.backoff(st.retries)
		st.retries++
		s.tr.Record(now, obs.EvFault, st.src, obs.FaultCap, int64(st.retries), 0)
	}
}

// NextDeadline reports the earliest pending restart instant, or
// MaxInt64 when every target is running (or abandoned). Nil-safe.
func (s *Supervisor) NextDeadline(now int64) int64 {
	d := int64(math.MaxInt64)
	if s == nil {
		return d
	}
	for _, st := range s.targets {
		if st.restartAt != 0 && st.restartAt < d {
			d = st.restartAt
		}
	}
	return d
}

// ExpSchedule materializes a Poisson fault-arrival process: instants in
// (startNS, endNS) with exponentially distributed gaps of mean mtbfNS,
// drawn from the seed. The draw happens once, up front — run-time
// behavior is a pure replay.
func ExpSchedule(seed int64, mtbfNS, startNS, endNS int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var out []int64
	t := startNS
	for {
		t += int64(rng.ExpFloat64() * float64(mtbfNS))
		if t >= endNS {
			return out
		}
		out = append(out, t)
	}
}

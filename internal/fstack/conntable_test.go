package fstack

import (
	"math/bits"
	"math/rand"
	"testing"
)

// connModel drives a connTable and the Go map it replaced through the
// same operations and compares them after every step: the looked-up
// connection, the count, and — every fullEvery steps — every slot
// against the map, the load bound and each entry's probe run.
type connModel struct {
	t         testing.TB
	tab       connTable
	ref       map[fourTuple]*tcpConn
	steps     int
	fullEvery int
	// inRun counts deletes of an entry whose next slot was taken: the
	// deletes that must shift the rest of a probe run back.
	inRun int
	// grown counts the table's doublings.
	grown int
}

func newConnModel(t testing.TB, fullEvery int) *connModel {
	return &connModel{t: t, ref: map[fourTuple]*tcpConn{}, fullEvery: fullEvery}
}

func (m *connModel) add(tuple fourTuple) *tcpConn {
	c := &tcpConn{tuple: tuple}
	size := len(m.tab.slots)
	m.tab.add(c)
	if size > 0 && len(m.tab.slots) > size {
		m.grown++
	}
	m.ref[tuple] = c
	m.check(tuple)
	return c
}

func (m *connModel) del(c *tcpConn) {
	mask := len(m.tab.slots) - 1
	for i := m.tab.home(c.tuple); m.tab.slots[i] != nil; i = (i + 1) & mask {
		if m.tab.slots[i] == c {
			if m.tab.slots[(i+1)&mask] != nil {
				m.inRun++
			}
			break
		}
	}
	m.tab.del(c)
	if m.ref[c.tuple] == c {
		delete(m.ref, c.tuple)
	}
	m.check(c.tuple)
}

// check compares the table with the map at tuple and, periodically,
// everywhere.
func (m *connModel) check(tuple fourTuple) {
	m.t.Helper()
	m.steps++
	if got, want := m.tab.get(tuple), m.ref[tuple]; got != want {
		m.t.Fatalf("step %d: get(%v) = %p, map holds %p", m.steps, tuple, got, want)
	}
	if m.tab.n != len(m.ref) {
		m.t.Fatalf("step %d: n = %d, map holds %d", m.steps, m.tab.n, len(m.ref))
	}
	if m.steps%m.fullEvery != 0 {
		return
	}
	size := len(m.tab.slots)
	if size > 0 && (bits.OnesCount(uint(size)) != 1 || 2*m.tab.n > size) {
		m.t.Fatalf("step %d: %d entries in %d slots, want a power of two at most half full", m.steps, m.tab.n, size)
	}
	seen := 0
	for i, c := range m.tab.slots {
		if c == nil {
			continue
		}
		seen++
		if m.ref[c.tuple] != c {
			m.t.Fatalf("step %d: slot %d holds %v, which the map does not", m.steps, i, c.tuple)
		}
		// Every slot from the entry's home to the entry is taken, or a
		// lookup would stop short of it.
		for j := m.tab.home(c.tuple); j != i; j = (j + 1) & (size - 1) {
			if m.tab.slots[j] == nil {
				m.t.Fatalf("step %d: %v sits at %d behind an empty slot %d of its run", m.steps, c.tuple, i, j)
			}
		}
	}
	walked := 0
	for c := range m.tab.all() {
		if m.ref[c.tuple] != c {
			m.t.Fatalf("step %d: all() yields %v, which the map does not hold", m.steps, c.tuple)
		}
		walked++
	}
	if seen != len(m.ref) || walked != len(m.ref) {
		m.t.Fatalf("step %d: %d slots taken, all() yields %d, map holds %d", m.steps, seen, walked, len(m.ref))
	}
}

// TestConnTableMatchesMap is the house-pattern model test for the tuple
// table: a population that grows across several doublings, churns and
// drains, with inserts, deletes (most of them inside a probe run, so
// the backward shift runs), lookups that hit and lookups that miss, and
// TIME_WAIT reuse — one tuple's connection deleted and a fresh one
// filed under it at once, as inputTCP and connect do.
func TestConnTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := newConnModel(t, 61)
	// The tuples of a server on two addresses and its clients: few
	// remote addresses, many ports, so that tuples differ in a few bits.
	draw := func() fourTuple {
		return fourTuple{
			local:  tcpEndpoint{IP: IP4(10, 0, 0, 1+byte(rng.Intn(2))), Port: 8080},
			remote: tcpEndpoint{IP: IP4(10, 0, 1, byte(rng.Intn(4))), Port: uint16(32768 + rng.Intn(8192))},
		}
	}
	var live []*tcpConn
	pick := func() int { return rng.Intn(len(live)) }
	for phase, target := range []int{3000, 600, 2500, 0} {
		for steps := 0; steps < 40_000 && (len(live) < target || phase%2 == 1 && len(live) > target); steps++ {
			grow := len(live) < target
			switch op := rng.Intn(100); {
			case op < 40 && grow || op < 20: // insert a fresh tuple
				if tuple := draw(); m.ref[tuple] == nil {
					live = append(live, m.add(tuple))
				}
			case op < 60 && len(live) > 0: // delete
				i := pick()
				m.del(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 70 && len(live) > 0: // TIME_WAIT reuse of one tuple
				i := pick()
				old := live[i]
				m.del(old)
				live[i] = m.add(old.tuple)
				if m.tab.get(old.tuple) == old {
					t.Fatalf("step %d: the reused tuple finds its old connection", m.steps)
				}
			case op < 85 && len(live) > 0: // a lookup that hits
				m.check(live[pick()].tuple)
			default: // a lookup that misses
				tuple := draw()
				tuple.remote.Port += 8192 // outside every drawn tuple
				m.check(tuple)
			}
		}
		if len(live) != target {
			t.Fatalf("phase %d: %d live connections, want %d", phase, len(live), target)
		}
	}
	m.fullEvery = 1
	m.check(fourTuple{})
	if m.grown < 3 {
		t.Fatalf("the table doubled %d times, want at least 3", m.grown)
	}
	if m.inRun < 1000 {
		t.Fatalf("%d deletes inside a probe run, want at least 1000", m.inRun)
	}
	t.Logf("%d steps, %d doublings to %d slots, %d deletes inside a probe run",
		m.steps, m.grown, len(m.tab.slots), m.inRun)
}

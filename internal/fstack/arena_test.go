package fstack

import "testing"

// TestArenaZeroValueReissuesLastPutFirst: the zero value refills
// slabLen at a time (a stack built as &Stack{} takes its connections
// from it), a struct put back is the next one taken, last in first out,
// and only a fresh struct moves issued.
func TestArenaZeroValueReissuesLastPutFirst(t *testing.T) {
	var a arena[int]
	p := [3]*int{a.take(), a.take(), a.take()}
	if len(a.first) != slabLen || a.more != nil || a.issued != 3 {
		t.Fatalf("zero value: slab of %d, %d later slabs, %d issued; want one slab of %d, 3 issued",
			len(a.first), len(a.more), a.issued, slabLen)
	}
	if p[0] == p[1] || p[1] == p[2] || p[0] == p[2] {
		t.Fatal("three takes returned one struct twice")
	}
	a.put(p[0])
	a.put(p[2])
	if got := a.take(); got != p[2] {
		t.Error("the first take after two puts is not the struct put back last")
	}
	if got := a.take(); got != p[0] {
		t.Error("the second take after two puts is not the struct put back first")
	}
	if a.issued != 3 {
		t.Errorf("reissues moved issued to %d, want 3", a.issued)
	}
	if got := a.take(); got == p[0] || got == p[1] || got == p[2] || a.issued != 4 {
		t.Errorf("a take with nothing put back: %d issued, want a fresh struct and 4", a.issued)
	}

	s := &Stack{}
	if c := s.newTCPConn(fourTuple{}); c == nil || s.connArena.issued != 1 {
		t.Fatalf("a zero Stack's conn arena issued %d, want 1", s.connArena.issued)
	}
}

// TestArenaWalksEveryIssuedStructOnce: the walk visits each struct
// taken from a slab exactly once, live or put back, in slab order across
// a slab boundary, and never the current slab's unissued tail.
func TestArenaWalksEveryIssuedStructOnce(t *testing.T) {
	a := arena[int]{slab: 4}
	var taken []*int
	for range 6 { // the whole first slab and half the second
		taken = append(taken, a.take())
	}
	a.put(taken[1])
	a.put(taken[4])
	if a.issued != 6 || len(a.more) != 1 {
		t.Fatalf("%d issued over %d slabs, want 6 over 2", a.issued, 1+len(a.more))
	}
	var walked []*int
	a.each(func(p *int) { walked = append(walked, p) })
	if len(walked) != len(taken) {
		t.Fatalf("the walk visited %d structs, want the %d issued and not the slab's unissued tail", len(walked), len(taken))
	}
	for i := range taken {
		if walked[i] != taken[i] {
			t.Errorf("visit %d is not the %d-th struct issued", i, i)
		}
	}
}

// TestArenaSlabAllocs: k·n takes from a fresh arena allocate its k
// slabs and nothing per struct — the first slab held inline, so a
// one-slab arena costs one allocation, and the later ones one list
// besides, up to slabLen of them — puts grow the free list a slab's
// worth at a time, and a warm arena's put/take cycle allocates nothing.
func TestArenaSlabAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 8
	for _, c := range []struct{ k, want int }{{1, 1}, {2, 3}, {1 + slabLen, 2 + slabLen}} {
		got := testing.AllocsPerRun(20, func() {
			a := arena[[16]byte]{slab: n}
			for range c.k * n {
				a.take()
			}
		})
		if got != float64(c.want) {
			t.Errorf("%d·%d takes cost %.0f allocations, want %d: the %d slabs and the list of the later ones",
				c.k, n, got, c.want, c.k)
		}
	}

	var a arena[[16]byte]
	var held [3 * n]*[16]byte
	if got := testing.AllocsPerRun(1, func() {
		a = arena[[16]byte]{slab: n}
		for i := range held {
			held[i] = a.take()
		}
		for _, p := range held {
			a.put(p)
		}
	}); got > 3+1+3 {
		t.Errorf("3·%d takes and puts cost %.0f allocations, want at most 7: 3 slabs, their list, 3 free-list growths", n, got)
	}
	if got := testing.AllocsPerRun(100, func() {
		for i := range held {
			held[i] = a.take()
		}
		for _, p := range held {
			a.put(p)
		}
	}); got != 0 {
		t.Errorf("a warm arena's take/put cycle costs %.0f allocations, want 0", got)
	}
}

package fstack

import (
	"math/rand"
	"slices"
	"testing"
)

// fdModel drives an fdTable and the Go map it replaced through the same
// operations and compares them after every step: the looked-up value,
// the length, and — every eachEvery steps — the whole ascending walk.
type fdModel struct {
	t         testing.TB
	tab       fdTable[*int]
	ref       map[int]*int
	steps     int
	eachEvery int
}

func newFDModel(t testing.TB, eachEvery int) *fdModel {
	return &fdModel{t: t, ref: map[int]*int{}, eachEvery: eachEvery}
}

func (m *fdModel) put(fd int) {
	v := new(int)
	*v = fd
	m.tab.put(fd, v)
	m.ref[fd] = v
	m.check(fd)
}

func (m *fdModel) del(fd int) {
	m.tab.del(fd)
	delete(m.ref, fd)
	m.check(fd)
}

// check compares the table with the map at fd, in length, in page
// bookkeeping and (periodically) entry by entry.
func (m *fdModel) check(fd int) {
	m.t.Helper()
	m.steps++
	if got, want := m.tab.get(fd), m.ref[fd]; got != want {
		m.t.Fatalf("step %d: get(%d) = %v, map holds %v", m.steps, fd, got, want)
	}
	if m.tab.len() != len(m.ref) {
		m.t.Fatalf("step %d: len %d, map holds %d", m.steps, m.tab.len(), len(m.ref))
	}
	if m.steps%m.eachEvery != 0 {
		return
	}
	want := make([]int, 0, len(m.ref))
	for fd := range m.ref {
		want = append(want, fd)
	}
	slices.Sort(want)
	got := make([]int, 0, len(want))
	m.tab.each(func(fd int, v *int) {
		if v != m.ref[fd] {
			m.t.Fatalf("step %d: each(%d) = %v, map holds %v", m.steps, fd, v, m.ref[fd])
		}
		got = append(got, fd)
	})
	if !slices.Equal(got, want) {
		m.t.Fatalf("step %d: each walked %v, map holds %v", m.steps, got, want)
	}
	// Page rule: a page exists iff it holds an entry or is the newest.
	perPage := make([]int, len(m.tab.pages))
	for fd := range m.ref {
		perPage[fd>>fdPageBits]++
	}
	for p, page := range m.tab.pages {
		if page.live != perPage[p] {
			m.t.Fatalf("step %d: page %d counts %d entries, holds %d", m.steps, p, page.live, perPage[p])
		}
		if (page.slot != nil) != (perPage[p] > 0 || p == len(m.tab.pages)-1) {
			m.t.Fatalf("step %d: page %d allocated=%v with %d entries (newest is %d)",
				m.steps, p, page.slot != nil, perPage[p], len(m.tab.pages)-1)
		}
	}
}

// TestFDTableMatchesMap is the house-pattern model test: monotone
// descriptors as the stacks mint them, a live window that slides (old
// descriptors close while new ones open), whole-page drains, lookups of
// closed, never-opened, negative and far-off descriptors, and puts into
// a page index that was released.
func TestFDTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := newFDModel(t, 97)
	next := 3
	var live []int // ascending
	for m.steps < 120_000 {
		switch op := rng.Intn(100); {
		case op < 45: // open the next descriptor
			m.put(next)
			live = append(live, next)
			next++
		case op < 80 && len(live) > 0: // close: mostly old ones (the window slides)
			i := 0
			if rng.Intn(4) == 0 {
				i = rng.Intn(len(live))
			}
			m.del(live[i])
			live = slices.Delete(live, i, i+1)
		case op < 85 && len(live) > 0: // drain every live descriptor of one page
			page := live[rng.Intn(len(live))] >> fdPageBits
			for i := 0; i < len(live); {
				if live[i]>>fdPageBits == page {
					m.del(live[i])
					live = slices.Delete(live, i, i+1)
				} else {
					i++
				}
			}
		case op < 88 && next > fdPageLen: // put below the newest page: a released index comes back
			fd := rng.Intn(next - fdPageLen)
			if m.ref[fd] == nil {
				i, _ := slices.BinarySearch(live, fd)
				live = slices.Insert(live, i, fd)
			}
			m.put(fd)
		case op < 90: // a burst that crosses at least one page boundary
			for i := 0; i < fdPageLen+rng.Intn(fdPageLen); i++ {
				m.put(next)
				live = append(live, next)
				next++
			}
		case op < 93: // close twice / close what never was
			m.del(rng.Intn(next + 2*fdPageLen))
			live = live[:0]
			for fd := range m.ref {
				live = append(live, fd)
			}
			slices.Sort(live)
		default: // lookups that must miss without growing anything
			for _, fd := range []int{-1, -fdPageLen, next, next + 5*fdPageLen, 1 << 40} {
				m.check(fd)
			}
		}
	}
}

// FuzzFDTable replays a byte string as table operations against the
// map: each byte picks open-next, close-oldest, close-newest, close a
// whole page, reopen a low descriptor or a skip ahead.
func FuzzFDTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1})       // open one, close one
	f.Add([]byte{5, 0, 5, 0, 3, 4, 0, 2, 1})    // skips, a page drain, a reopen
	f.Add([]byte{5, 5, 5, 3, 3, 3, 4, 4, 0, 1}) // empty pages behind the newest
	f.Add([]byte{0, 2, 0, 2, 5, 2, 4, 4, 4, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newFDModel(t, 1)
		next := 3
		oldest := func() (int, bool) {
			min, ok := 0, false
			for fd := range m.ref {
				if !ok || fd < min {
					min, ok = fd, true
				}
			}
			return min, ok
		}
		for _, op := range ops {
			switch op % 6 {
			case 0:
				m.put(next)
				next++
			case 1:
				if fd, ok := oldest(); ok {
					m.del(fd)
				}
			case 2:
				m.del(next - 1)
			case 3:
				if fd, ok := oldest(); ok {
					for d := fd &^ (fdPageLen - 1); d < fd|(fdPageLen-1)+1; d++ {
						m.del(d)
					}
				}
			case 4:
				m.put(int(op) * 7 % next)
			case 5:
				next += fdPageLen - 1
				m.put(next)
				next++
			}
		}
	})
}

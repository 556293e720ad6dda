package fstack

import "slices"

// slabLen is how many fresh structs one arena refill makes unless the
// arena says otherwise: populating a stack costs one allocation per slab
// and type, not one per struct.
const slabLen = 64

// arena pools one struct type of the connection plane, the way
// FreeBSD's UMA zones do (uma_zalloc/uma_zfree): fresh structs come a
// slab at a time, and the struct put back last is the next one taken,
// so every run reissues structs in one order. Not a sync.Pool: a pool
// may drop its contents at any GC, putting allocations back into
// steady-state churn, and hands structs back in an order no run can
// reproduce. The zero value is ready to use, refilling slabLen at a
// time.
type arena[T any] struct {
	// slab is the structs per refill; 0 means slabLen.
	slab int
	// issued counts the structs taken from slabs: each one is live or
	// in free.
	issued int
	free   []*T
	// first is the first slab, held inline so that an arena that never
	// needs a second pays for no slab list; more holds the later ones,
	// room for slabLen of them made at once, so that a large population
	// pays one allocation for its list, not one per doubling.
	first []T
	more  [][]T
}

// size is the structs per slab.
func (a *arena[T]) size() int {
	if a.slab > 0 {
		return a.slab
	}
	return slabLen
}

// at is the i-th struct issued.
func (a *arena[T]) at(i int) *T {
	n := a.size()
	if i < n {
		return &a.first[i]
	}
	return &a.more[i/n-1][i%n]
}

// take returns the struct put back last, else the next one of the
// current slab, making a slab when that one is used up. A reissued
// struct keeps what it held: the caller sets every field it reads.
func (a *arena[T]) take() *T {
	if k := len(a.free) - 1; k >= 0 {
		p := a.free[k]
		a.free = a.free[:k]
		return p
	}
	if n := a.size(); a.issued%n == 0 {
		switch {
		case a.first == nil:
			a.first = make([]T, n)
		case a.more == nil:
			a.more = append(make([][]T, 0, slabLen), make([]T, n))
		default:
			a.more = append(a.more, make([]T, n))
		}
	}
	a.issued++
	return a.at(a.issued - 1)
}

// put gives p back for the next take. The free list grows a slab's
// worth at a time, so puts allocate once per slab, not at every
// doubling.
func (a *arena[T]) put(p *T) {
	if len(a.free) == cap(a.free) {
		a.free = slices.Grow(a.free, a.size())
	}
	a.free = append(a.free, p)
}

// each calls fn on every issued struct, live or free, in slab order.
func (a *arena[T]) each(fn func(*T)) {
	for i := range a.issued {
		fn(a.at(i))
	}
}

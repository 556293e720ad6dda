package fstack

import "slices"

// slabLen is how many fresh structs one arena refill asks for unless
// the arena says otherwise: populating a stack costs one allocation per
// slab and type, not one per struct.
const slabLen = 64

// arena pools one struct type of the connection plane, the way
// FreeBSD's UMA zones do (uma_zalloc/uma_zfree): fresh structs come a
// slab at a time, and the struct put back last is the next one taken,
// so every run reissues structs in one order. Not a sync.Pool: a pool
// may drop its contents at any GC, putting allocations back into
// steady-state churn, and hands structs back in an order no run can
// reproduce. The zero value is ready to use, refilling at least
// slabLen at a time.
type arena[T any] struct {
	// slab is the structs a refill asks for; 0 means slabLen. A slab
	// holds as many as its allocation has room for (newSlab).
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

// size is the structs per slab: the first slab's length once it is
// made, every later one being as long.
func (a *arena[T]) size() int {
	switch {
	case a.first != nil:
		return len(a.first)
	case a.slab > 0:
		return a.slab
	}
	return slabLen
}

// newSlab makes a slab of at least n structs, and of as many as its
// allocation holds: the heap rounds a request up to its size class, so
// 64 connections of 200 B, 12 800 B, take a 13 568 B block, which holds
// 67. A slab made for that many rounds up to the same class, so every
// slab of an arena is as long as its first.
func newSlab[T any](n int) []T {
	s := slices.Grow([]T(nil), n)
	return s[:cap(s)]
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
			a.first = newSlab[T](n)
		case a.more == nil:
			a.more = append(make([][]T, 0, slabLen), newSlab[T](n))
		default:
			a.more = append(a.more, newSlab[T](n))
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

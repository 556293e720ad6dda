// Package connscale holds the connection-scale machinery of the stack:
// a hierarchical timing wheel (O(1) timer arm/disarm, next-deadline
// queries that never scan idle connections) and the SYN-cache entry
// pool. It is deliberately free of TCP knowledge — fstack owns the
// protocol; this package owns the data structures that keep 100k
// connections cheap.
package connscale

import (
	"math"
	"math/bits"
)

// Wheel geometry. Three levels of 256 slots each; with the default
// tick of 1<<16 ns (~65.5 µs) the levels span ~16.8 ms, ~4.3 s and
// ~1100 s — delayed ACKs and RTO floors land in level 0, initial RTOs
// and TIME_WAIT in level 1, and only pathological backoffs reach
// level 2. Deadlines past the top level wait on an overflow list,
// bookkept as one more level with a single slot, and are re-sorted
// every time the top level's cursor moves — so they enter the wheel
// proper a full revolution before they are due. (Clamping them into
// the top level's last slot instead would break the rule NextDeadline
// rests on: once the cursor moves on, that slot is scanned before a
// later one that may hold a nearer deadline.)
const (
	slotBits  = 8
	numSlots  = 1 << slotBits
	slotMask  = numSlots - 1
	numLevels = 3

	overflow = numLevels                  // level index of the overflow list
	numLists = numLevels*numSlots + 1     // every slot, then the overflow list
	occWords = numSlots / 64              // occupancy bitmap words per level
	topShift = slotBits * (numLevels - 1) // tick -> top-level cursor
)

// DefaultTickShift is the tick granularity fstack uses: 1<<16 ns.
const DefaultTickShift = 16

// Handle names one inserted entry, for O(1) Remove. Handles are
// recycled after the entry fires or is removed; a held handle is valid
// exactly until then.
type Handle int32

// None is the null Handle.
const None Handle = -1

// item is one timer entry: slice-backed so the wheel allocates only
// when it grows past its high-water mark, never in steady state.
// prev/next link the entry into its slot's doubly-linked list by
// index; slot is the flattened level*numSlots+slot it lives in, or -1
// when the item is on the free list.
type item[T any] struct {
	deadline   int64
	value      T
	prev, next Handle
	slot       int32
}

// Wheel is a hierarchical timing wheel over an int64 nanosecond clock.
// Insert and Remove are O(1); Advance is bounded by the slots crossed
// (at most 256 per level) plus the entries actually due. NextDeadline
// is exact, and O(1) while every level's cached minimum holds; a level
// whose minimum left re-walks its own first occupied slot — found
// through an occupancy bitmap, not by probing — and no other level's.
// Firing is exact: entries carry their precise deadline, and Advance
// only fires those with deadline <= now — the tick merely buckets them.
//
// Not safe for concurrent use; a stack drives it from one goroutine.
type Wheel[T any] struct {
	shift   uint
	start   int64
	curTick int64

	slots [numLists]Handle
	items []item[T]
	free  Handle

	size      int
	levelSize [numLevels + 1]int
	// occ holds one bit per slot, set while the slot's list is non-empty.
	occ [numLevels + 1][occWords]uint64

	// minCache[k] is the exact earliest deadline on level k while
	// minValid[k] (math.MaxInt64 for an empty level). One cache per
	// level, not one for the wheel: the entry that leaves most often is
	// a short level-0 timer, and finding its successor must not re-walk
	// a level-1 slot holding hundreds of cold TIME_WAIT entries — with a
	// single cache that walk ran several times per flow over a slot
	// whose population grows with the flow rate. place lowers a level's
	// cache; an entry leaving at (or below) it invalidates that level
	// alone, for a lazy recompute.
	minCache [numLevels + 1]int64
	minValid [numLevels + 1]bool

	// walked counts the entries recomputeMin has visited; the fat-slot
	// regression test asserts on it.
	walked uint64
}

// New builds a wheel whose tick is 1<<tickShift nanoseconds, with the
// tick origin at startNS (deadlines before it are treated as due
// immediately).
func New[T any](startNS int64, tickShift uint) *Wheel[T] {
	w := &Wheel[T]{shift: tickShift, start: startNS, free: None}
	for i := range w.slots {
		w.slots[i] = None
	}
	for k := range w.minCache {
		w.minCache[k], w.minValid[k] = math.MaxInt64, true
	}
	return w
}

// Len returns the number of live entries.
func (w *Wheel[T]) Len() int { return w.size }

// tickOf maps an instant to its tick index (clamped to the cursor so
// past deadlines land in the current slot and fire on the next
// Advance).
func (w *Wheel[T]) tickOf(at int64) int64 {
	t := (at - w.start) >> w.shift
	if t < w.curTick {
		t = w.curTick
	}
	return t
}

// Insert registers a deadline and returns its handle.
func (w *Wheel[T]) Insert(deadline int64, v T) Handle {
	h := w.alloc()
	it := &w.items[h]
	it.deadline = deadline
	it.value = v
	w.place(h, deadline)
	w.size++
	return h
}

// Deadline returns the exact instant a live entry was inserted with.
func (w *Wheel[T]) Deadline(h Handle) int64 { return w.items[h].deadline }

// Remove unregisters a live entry. The handle must be one returned by
// Insert that has neither fired nor been removed.
func (w *Wheel[T]) Remove(h Handle) {
	it := &w.items[h]
	if it.slot < 0 {
		panic("connscale: Remove of dead timer handle")
	}
	w.unlink(h)
	w.leave(int(it.slot)/numSlots, it.deadline)
	w.size--
	w.freeItem(h)
}

// Advance moves the wheel to now, calling fire for every entry whose
// deadline has arrived (deadline <= now). Firing order is
// deterministic (slot order, then reverse insertion order within a
// slot). The callback may Insert new entries — they are not visited
// by this Advance — but must not Remove other entries; the common
// pattern is a callback that only records the fired value.
func (w *Wheel[T]) Advance(now int64, fire func(T)) {
	old := w.curTick
	t := (now - w.start) >> w.shift
	if t < old {
		t = old
	}
	w.curTick = t
	if w.size == 0 {
		return
	}
	// Level 0 first, before cascades repopulate its slots: the slot
	// the cursor left (it can still hold mid-tick deadlines from the
	// previous visit), the crossed slots, and the new current slot,
	// each entry checked against its exact deadline — a deadline later
	// within the current tick stays parked until a later Advance
	// passes it.
	if n := t - old; n >= numSlots {
		for s := 0; s < numSlots; s++ {
			w.expire(s, now, fire)
		}
	} else {
		for i := int64(0); i <= n; i++ {
			w.expire(int((old+i)&slotMask), now, fire)
		}
	}
	// Upper levels: every slot the level cursor crossed is emptied and
	// its entries either fire (due) or cascade down to their exact
	// lower-level position relative to the new cursor.
	for k := 1; k < numLevels; k++ {
		if w.levelSize[k] == 0 {
			continue
		}
		shift := uint(slotBits * k)
		cOld, cNew := old>>shift, t>>shift
		if n := cNew - cOld; n >= numSlots {
			for s := 0; s < numSlots; s++ {
				w.cascade(k, s, now, fire)
			}
		} else {
			for i := int64(1); i <= n; i++ {
				w.cascade(k, int((cOld+i)&slotMask), now, fire)
			}
		}
	}
	// The overflow list is re-sorted whenever the top level's window
	// moved: whatever the window now reaches drops into the wheel.
	if w.levelSize[overflow] > 0 && t>>topShift != old>>topShift {
		w.cascade(overflow, 0, now, fire)
	}
}

// NextDeadline returns the exact earliest deadline held, or
// math.MaxInt64 when the wheel is empty. Levels overlap in time near
// their boundaries, so it is the least of the per-level minima.
func (w *Wheel[T]) NextDeadline() int64 {
	m := int64(math.MaxInt64)
	for k := range w.minCache {
		if !w.minValid[k] {
			w.recomputeMin(k)
		}
		m = min(m, w.minCache[k])
	}
	return m
}

// place buckets a live item by its deadline relative to the current
// cursor — the first level whose 256-slot window reaches the
// deadline's tick, or the overflow list past the top level — and
// lowers that level's cached minimum.
func (w *Wheel[T]) place(h Handle, deadline int64) {
	t := w.tickOf(deadline)
	k, idx := overflow, numLists-1
	for l := 0; l < numLevels; l++ {
		shift := uint(slotBits * l)
		if v := t >> shift; v < w.curTick>>shift+numSlots {
			k, idx = l, l*numSlots+int(v&slotMask)
			break
		}
	}
	w.push(idx, h)
	w.levelSize[k]++
	if w.minValid[k] && deadline < w.minCache[k] {
		w.minCache[k] = deadline
	}
}

// leave accounts for an entry leaving level k: one at (or below) the
// level's cached minimum invalidates that level, and only that level.
func (w *Wheel[T]) leave(k int, deadline int64) {
	w.levelSize[k]--
	if w.minValid[k] && deadline <= w.minCache[k] {
		w.minValid[k] = false
	}
}

// expire fires the due entries of one level-0 slot, leaving not-yet-due
// entries (same tick, later instant) in place.
func (w *Wheel[T]) expire(slot int, now int64, fire func(T)) {
	h := w.slots[slot]
	for h != None {
		it := &w.items[h]
		next := it.next
		if it.deadline <= now {
			v := it.value
			w.unlink(h)
			w.leave(0, it.deadline)
			w.size--
			w.freeItem(h)
			fire(v)
		}
		h = next
	}
}

// cascade empties one upper-level slot (or the overflow list): due
// entries fire, the rest are re-placed relative to the new cursor.
func (w *Wheel[T]) cascade(level, slot int, now int64, fire func(T)) {
	idx := level*numSlots + slot
	h := w.slots[idx]
	w.slots[idx] = None
	w.clearOcc(idx)
	for h != None {
		it := &w.items[h]
		next := it.next
		w.leave(level, it.deadline)
		if it.deadline <= now {
			v := it.value
			w.size--
			w.freeItem(h)
			fire(v)
		} else {
			it.prev, it.next = None, None
			w.place(h, it.deadline)
		}
		h = next
	}
}

// recomputeMin rebuilds level k's cached minimum. Slots scanned outward
// from the level's cursor hold strictly increasing ticks, so the first
// occupied one contains the level's minimum: that one slot is walked
// and nothing else.
func (w *Wheel[T]) recomputeMin(k int) {
	m := int64(math.MaxInt64)
	if w.levelSize[k] > 0 {
		from := int(w.curTick >> uint(slotBits*k) & slotMask)
		for h := w.slots[k*numSlots+w.firstOccupied(k, from)]; h != None; h = w.items[h].next {
			m = min(m, w.items[h].deadline)
			w.walked++
		}
	}
	w.minCache[k], w.minValid[k] = m, true
}

// firstOccupied returns the first occupied slot of non-empty level k at
// or after slot from, wrapping around the level.
func (w *Wheel[T]) firstOccupied(k, from int) int {
	occ := &w.occ[k]
	word := from >> 6
	if m := occ[word] >> uint(from&63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	// The last round re-reads the starting word, for its bits below from.
	for i := 1; i <= occWords; i++ {
		wi := (word + i) % occWords
		if m := occ[wi]; m != 0 {
			return wi<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("connscale: occupancy bitmap out of step with level size")
}

// alloc takes an item off the free list, growing the backing slice
// only past its high-water mark.
func (w *Wheel[T]) alloc() Handle {
	if w.free != None {
		h := w.free
		w.free = w.items[h].next
		w.items[h].prev, w.items[h].next = None, None
		return h
	}
	w.items = append(w.items, item[T]{prev: None, next: None, slot: -1})
	return Handle(len(w.items) - 1)
}

// freeItem returns an item to the free list, dropping its value so a
// pooled pointer cannot pin the referent.
func (w *Wheel[T]) freeItem(h Handle) {
	it := &w.items[h]
	var zero T
	it.value = zero
	it.slot = -1
	it.prev = None
	it.next = w.free
	w.free = h
}

// setOcc / clearOcc maintain the occupancy bit of a flattened slot index.
func (w *Wheel[T]) setOcc(idx int)   { w.occ[idx/numSlots][idx&slotMask>>6] |= 1 << uint(idx&63) }
func (w *Wheel[T]) clearOcc(idx int) { w.occ[idx/numSlots][idx&slotMask>>6] &^= 1 << uint(idx&63) }

// push links an item at the head of a slot list.
func (w *Wheel[T]) push(idx int, h Handle) {
	it := &w.items[h]
	it.prev = None
	it.next = w.slots[idx]
	if it.next != None {
		w.items[it.next].prev = h
	}
	w.slots[idx] = h
	w.setOcc(idx)
	it.slot = int32(idx)
}

// unlink detaches an item from its slot list.
func (w *Wheel[T]) unlink(h Handle) {
	it := &w.items[h]
	if it.prev != None {
		w.items[it.prev].next = it.next
	} else {
		w.slots[it.slot] = it.next
		if it.next == None {
			w.clearOcc(int(it.slot))
		}
	}
	if it.next != None {
		w.items[it.next].prev = it.prev
	}
}

package connscale

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// collect drains due entries at now into a slice.
func collect(w *Wheel[int], now int64) []int {
	var got []int
	w.Advance(now, func(v int) { got = append(got, v) })
	return got
}

func TestWheelFiresExactly(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	w.Insert(1_000_000, 1) // 1 ms: level 0
	w.Insert(100_000_000, 2)
	w.Insert(100_000_000, 3) // same instant
	w.Insert(5_000_000_000, 4)

	if d := w.NextDeadline(); d != 1_000_000 {
		t.Fatalf("NextDeadline = %d, want 1e6", d)
	}
	if got := collect(w, 999_999); len(got) != 0 {
		t.Fatalf("fired %v one ns early", got)
	}
	if got := collect(w, 1_000_000); len(got) != 1 || got[0] != 1 {
		t.Fatalf("at deadline fired %v, want [1]", got)
	}
	if d := w.NextDeadline(); d != 100_000_000 {
		t.Fatalf("NextDeadline after first fire = %d, want 1e8", d)
	}
	got := collect(w, 200_000_000) // leap across many level-0 revolutions
	sort.Ints(got)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("leap fired %v, want [2 3]", got)
	}
	if got := collect(w, 5_000_000_001); len(got) != 1 || got[0] != 4 {
		t.Fatalf("level-2 entry fired %v, want [4]", got)
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after all fired", w.Len())
	}
	if d := w.NextDeadline(); d != math.MaxInt64 {
		t.Fatalf("empty NextDeadline = %d", d)
	}
}

func TestWheelRemove(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	h1 := w.Insert(1_000_000, 1)
	w.Insert(2_000_000, 2)
	w.Remove(h1)
	if d := w.NextDeadline(); d != 2_000_000 {
		t.Fatalf("NextDeadline after Remove = %d, want 2e6", d)
	}
	if got := collect(w, 3_000_000); len(got) != 1 || got[0] != 2 {
		t.Fatalf("fired %v, want [2]", got)
	}
}

func TestWheelPastDeadline(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	w.Advance(1_000_000_000, func(int) {})
	w.Insert(5, 1) // long past: due immediately
	if d := w.NextDeadline(); d != 5 {
		t.Fatalf("NextDeadline = %d, want the past instant 5", d)
	}
	if got := collect(w, 1_000_000_000); len(got) != 1 || got[0] != 1 {
		t.Fatalf("past deadline fired %v, want [1]", got)
	}
}

func TestWheelFarDeadlineClamp(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	far := int64(1) << 62 // beyond the top level's span
	w.Insert(far, 1)
	if d := w.NextDeadline(); d != far {
		t.Fatalf("NextDeadline = %d, want %d", d, far)
	}
	if got := collect(w, far-1); len(got) != 0 {
		t.Fatalf("clamped entry fired early: %v", got)
	}
	if got := collect(w, far); len(got) != 1 {
		t.Fatalf("clamped entry fired %v, want [1]", got)
	}
}

// TestWheelRandomized cross-checks the wheel against a sorted list
// model under random insert/remove/advance traffic.
func TestWheelRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := New[int](0, DefaultTickShift)
	type ref struct {
		deadline int64
		h        Handle
	}
	live := map[int]ref{}
	now, nextID := int64(0), 0
	for step := 0; step < 40000; step++ {
		switch r := rng.Intn(10); {
		case r < 5: // insert at a mixed-scale future offset
			var off int64
			switch rng.Intn(6) {
			case 0:
				off = rng.Int63n(1 << 20) // within level 0
			case 1:
				off = rng.Int63n(1 << 28) // level 1 territory
			case 2:
				off = rng.Int63n(1 << 34) // level 2 territory
			case 3: // straddling a level's far edge (level 0/1, 1/2, 2/clamp)
				edge := int64(1) << (DefaultTickShift + slotBits*(1+rng.Intn(numLevels)))
				off = edge - 1<<18 + rng.Int63n(1<<19)
			case 4: // past the top level: the far clamp
				off = 1<<(DefaultTickShift+slotBits*numLevels) + rng.Int63n(1<<42)
			default: // already due
				off = -rng.Int63n(1 << 20)
			}
			d := now + off
			live[nextID] = ref{deadline: d, h: w.Insert(d, nextID)}
			nextID++
		case r < 6: // remove a random live entry
			for id, rf := range live {
				w.Remove(rf.h)
				delete(live, id)
				break
			}
		default: // advance by a random leap
			now += rng.Int63n(1 << 24)
			if rng.Intn(200) == 0 {
				now += rng.Int63n(1 << 41) // a leap across top-level slots
			}
			fired := map[int]bool{}
			w.Advance(now, func(id int) { fired[id] = true })
			for id, rf := range live {
				if rf.deadline <= now && !fired[id] {
					t.Fatalf("step %d: entry %d (deadline %d) not fired at %d", step, id, rf.deadline, now)
				}
				if rf.deadline > now && fired[id] {
					t.Fatalf("step %d: entry %d (deadline %d) fired early at %d", step, id, rf.deadline, now)
				}
				if fired[id] {
					delete(live, id)
				}
			}
		}
		if w.Len() != len(live) {
			t.Fatalf("step %d: Len %d != model %d", step, w.Len(), len(live))
		}
		wantMin := int64(math.MaxInt64)
		for _, rf := range live {
			if rf.deadline < wantMin {
				wantMin = rf.deadline
			}
		}
		if got := w.NextDeadline(); got != wantMin {
			t.Fatalf("step %d: NextDeadline %d != model %d", step, got, wantMin)
		}
	}
}

// TestWheelDeadlineSurvivesCascades: Deadline(h) is the instant the
// entry was inserted with, wherever it lives now — a handle keeps its
// item through every cascade down the levels and every re-sort of the
// overflow list, and the stack reads a connection's filed deadline
// nowhere else.
func TestWheelDeadlineSurvivesCascades(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	const topSlot = int64(1) << (DefaultTickShift + slotBits*(numLevels-1))
	at := []int64{
		1 << 20,          // level 0
		1<<28 + 12345,    // level 1
		1<<34 + 67,       // level 2
		300*topSlot + 89, // past the top level: the overflow list
	}
	hs := make([]Handle, len(at))
	for i, d := range at {
		hs[i] = w.Insert(d, i)
	}
	check := func(when string, live int) {
		t.Helper()
		for i := len(at) - live; i < len(at); i++ {
			if got := w.Deadline(hs[i]); got != at[i] {
				t.Fatalf("%s: Deadline(entry %d) = %d, want the inserted %d", when, i, got, at[i])
			}
		}
	}
	check("as inserted", 4)
	for i, now := range at {
		// Just short of each deadline: the later entries cascade (the
		// overflow list is re-sorted once the top cursor moves) but none fires.
		w.Advance(now-1, func(v int) { t.Fatalf("entry %d fired before its deadline", v) })
		check(fmt.Sprintf("advanced to %d", now-1), len(at)-i)
		if got := collect(w, now); len(got) != 1 || got[0] != i {
			t.Fatalf("at %d fired %v, want [%d]", now, got, i)
		}
	}
}

// TestWheelSteadyStateNoGrowth pins the zero-alloc property the conn
// timer path relies on: once the free list is primed, insert/fire
// cycles reuse items instead of growing the backing slice.
func TestWheelSteadyStateNoGrowth(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	for i := 0; i < 64; i++ {
		w.Insert(int64(i+1)*1e6, i)
	}
	w.Advance(65e6, func(int) {})
	high := len(w.items)
	now := int64(65e6)
	for round := 0; round < 1000; round++ {
		for i := 0; i < 64; i++ {
			w.Insert(now+int64(i+1)*1e5, i)
		}
		now += 1e7
		w.Advance(now, func(int) {})
	}
	if len(w.items) != high {
		t.Fatalf("items grew from %d to %d in steady state", high, len(w.items))
	}
}

// TestWheelFarClampBehindNearerEntry: a deadline parked past the top
// level must not hide a nearer one filed after the cursor moved on.
func TestWheelFarClampBehindNearerEntry(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	const topSlot = int64(1) << (DefaultTickShift + slotBits*(numLevels-1))
	w.Insert(512*topSlot, 1) // two revolutions out
	w.Advance(topSlot, func(int) {})
	w.Insert(256*topSlot, 2) // the last slot the top level now reaches
	w.Remove(w.Insert(topSlot+5, 3))
	if d := w.NextDeadline(); d != 256*topSlot {
		t.Fatalf("NextDeadline = %d, want %d", d, 256*topSlot)
	}
	if got := collect(w, 256*topSlot); len(got) != 1 || got[0] != 2 {
		t.Fatalf("fired %v, want [2]", got)
	}
	if got := collect(w, 512*topSlot); len(got) != 1 || got[0] != 1 {
		t.Fatalf("fired %v, want [1]", got)
	}
}

// fatSlotWheel files n cold entries in one level-1 slot — the shape a
// churn run's TIME_WAIT population takes — and settles the caches.
func fatSlotWheel(n int) *Wheel[int] {
	w := New[int](0, DefaultTickShift)
	const level1Slot = int64(1) << (DefaultTickShift + slotBits)
	for i := 0; i < n; i++ {
		w.Insert(3*level1Slot+int64(i), i)
	}
	w.NextDeadline()
	return w
}

// TestWheelFatSlotStaysCold is the regression the per-level minimum
// exists for: a short level-0 timer coming and going (every handshake
// of a churn run) must not re-walk the fat level-1 slot behind it.
func TestWheelFatSlotStaysCold(t *testing.T) {
	const fat, cycles = 10_000, 1000
	w := fatSlotWheel(fat)
	before := w.walked
	for i := 0; i < cycles; i++ {
		d := int64(1000 + i)
		h := w.Insert(d, -1)
		if got := w.NextDeadline(); got != d {
			t.Fatalf("cycle %d: NextDeadline = %d with the level-0 entry in, want %d", i, got, d)
		}
		w.Remove(h)
		if got, want := w.NextDeadline(), 3*int64(1)<<(DefaultTickShift+slotBits); got != want {
			t.Fatalf("cycle %d: NextDeadline = %d after Remove, want %d", i, got, want)
		}
	}
	// Each Remove invalidates level 0 alone, and level 0 is then empty.
	if walked := w.walked - before; walked > cycles {
		t.Fatalf("recomputeMin visited %d entries over %d cycles; the %d-entry level-1 slot is being re-walked",
			walked, cycles, fat)
	}
}

// BenchmarkWheelNextDeadlineFatSlot times one level-0 arm / query /
// disarm / query cycle in front of a fat level-1 slot.
func BenchmarkWheelNextDeadlineFatSlot(b *testing.B) {
	w := fatSlotWheel(10_000)
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := w.Insert(int64(1000+i&1023), -1)
		sink += w.NextDeadline()
		w.Remove(h)
		sink += w.NextDeadline()
	}
	_ = sink
}

package netem

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// sortHeld orders frames the way the delay line must: (deliverAt, seq).
func sortHeld(fs []heldFrame) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].deliverAt != fs[j].deliverAt {
			return fs[i].deliverAt < fs[j].deliverAt
		}
		return fs[i].seq < fs[j].seq
	})
}

// frameHeap is the binary min-heap in `before` order the delay line was
// before it became a ring, kept as the ring's reference.
type frameHeap []heldFrame

func (h *frameHeap) push(f heldFrame) {
	s := append(*h, f)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest frame; the heap must be non-empty.
func (h *frameHeap) pop() heldFrame {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0], s[n] = s[n], heldFrame{}
	*h = s[:n]
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < n && s[l].before(s[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && s[r].before(s[min]) {
			min = r
		}
		if min == i {
			return top
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

// TestFrameHeapPopsInSortedOrder drives the ring and its reference heap
// side by side — pushes and pops interleaved at random, instants drawn
// from a range small enough that ties are common, stretches of
// non-decreasing instants (the no-jitter link) between stretches of
// random ones, and runs deep enough to grow the ring and wrap its head —
// and requires every pop of both to return exactly what a full sort of
// the current contents would put first.
func TestFrameHeapPopsInSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h frameHeap
	var r delayLine
	var model []heldFrame
	seq := uint64(0)
	base := int64(0)
	for op := 0; op < 40000; op++ {
		monotone := op/2000%2 == 1
		if len(model) == 0 || rng.Intn(5) < 3 || op%10000 < 300 {
			at := base + int64(rng.Intn(64))
			if monotone {
				base += int64(rng.Intn(3))
				at = base + 63
			}
			f := heldFrame{deliverAt: at, seq: seq}
			seq++
			h.push(f)
			r.push(f)
			model = append(model, f)
			continue
		}
		sortHeld(model)
		want := model[0]
		model = model[1:]
		ref, got := h.pop(), r.pop()
		if ref.deliverAt != want.deliverAt || ref.seq != want.seq {
			t.Fatalf("op %d: heap popped (%d, %d), sorted order has (%d, %d) first", op, ref.deliverAt, ref.seq, want.deliverAt, want.seq)
		}
		if got.deliverAt != want.deliverAt || got.seq != want.seq {
			t.Fatalf("op %d: ring popped (%d, %d), the heap (%d, %d)", op, got.deliverAt, got.seq, ref.deliverAt, ref.seq)
		}
		if r.len() != len(model) || len(h) != len(model) {
			t.Fatalf("op %d: ring holds %d, heap %d, model %d", op, r.len(), len(h), len(model))
		}
	}
	if len(r.buf) < 256 {
		t.Fatalf("the ring grew only to %d slots: the run never held many frames", len(r.buf))
	}
}

// TestJitterReorderDeliversInDeadlineOrder drives a whole link: frames
// sent at random spacings through jitter and the reorder knob, pumped
// at random intervals. What reaches the endpoint must be the send
// sequence sorted by (delivery instant, send order) — the order a
// sort.Slice over the same keys gives — whatever batches the pumps cut
// it into, and every frame must arrive exactly once.
func TestJitterReorderDeliversInDeadlineOrder(t *testing.T) {
	clk := sim.NewVClock()
	var b recorder
	l := New(clk, &recorder{}, &b, Config{Seed: 5, DelayNS: 2000, JitterNS: 400, ReorderProb: 0.2, ReorderExtraNS: 900})
	rng := rand.New(rand.NewSource(6))
	const n = 5000
	for i := 0; i < n; i++ {
		data := make([]byte, 64)
		binary.BigEndian.PutUint32(data, uint32(i))
		l.Send(0, data, clk.Now())
		clk.Advance(int64(rng.Intn(40))) // 0 = same-instant sends: ties
		if rng.Intn(4) == 0 {
			l.Pump(clk.Now())
		}
	}
	drain(clk, l, 10_000_000)
	if len(b.frames) != n {
		t.Fatalf("delivered %d of %d frames", len(b.frames), n)
	}
	type key struct {
		at  int64
		idx uint32
	}
	got := make([]key, n)
	for i, f := range b.frames {
		got[i] = key{f.at, binary.BigEndian.Uint32(f.data)}
	}
	want := append([]key(nil), got...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].idx < want[j].idx
	})
	reordered := false
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delivery %d is frame %d at %d; sorted order has frame %d at %d", i, got[i].idx, got[i].at, want[i].idx, want[i].at)
		}
		reordered = reordered || i > 0 && got[i].idx < got[i-1].idx
	}
	if !reordered {
		t.Fatal("the run never reordered a frame: it does not exercise the heap")
	}
	if st := l.Stats(0); st.Sent != n || st.Delivered != n || st.Reordered == 0 {
		t.Fatalf("stats: %v", st)
	}
}

// TestPumpWakeMirrorTracksDeadlines pins the wake instant Pump and
// NextDeadline compute from the delay line and the carrier schedule,
// through every path that changes them: enqueue, release, carrier
// schedule install, toggle.
func TestPumpWakeMirrorTracksDeadlines(t *testing.T) {
	clk := sim.NewVClock()
	var b recorder
	l := New(clk, &recorder{}, &b, Config{DelayNS: 1000})
	const never = int64(1<<63 - 1)
	if got := l.NextDeadline(1, 0); got != never {
		t.Fatalf("empty link: deadline %d, want none", got)
	}
	l.Send(0, make([]byte, 64), 0)
	l.Send(0, make([]byte, 64), 500)
	if got := l.NextDeadline(1, 0); got != 1000 {
		t.Fatalf("after two sends: deadline %d, want 1000", got)
	}
	clk.Set(999)
	l.Pump(999)
	if len(b.frames) != 0 {
		t.Fatal("frame released before it was due")
	}
	clk.Set(1000)
	l.Pump(1000)
	if len(b.frames) != 1 || l.NextDeadline(1, 1000) != 1500 {
		t.Fatalf("at 1000: %d delivered, deadline %d; want 1 and 1500", len(b.frames), l.NextDeadline(1, 1000))
	}
	l.SetCarrierSchedule(0, []int64{1200, 1800})
	if got := l.NextDeadline(1, 1000); got != 1200 {
		t.Fatalf("carrier toggle pending: deadline %d, want 1200", got)
	}
	clk.Set(1200)
	l.Pump(1200) // takes the toggle; the frame due at 1500 stays held
	if got := l.NextDeadline(1, 1200); got != 1500 || len(b.frames) != 1 {
		t.Fatalf("after toggle: deadline %d (want 1500), %d delivered", got, len(b.frames))
	}
	clk.Set(2000)
	l.Pump(2000)
	if got := l.NextDeadline(1, 2000); got != never || len(b.frames) != 2 {
		t.Fatalf("drained: deadline %d (want none), %d delivered", got, len(b.frames))
	}
	if !l.Carrier(0, 2000) {
		t.Fatal("carrier should be up again after both toggles")
	}
}

// frameLoop returns one steady-state step of a busy impaired link: a
// frame enters the delay line, the clock moves one frame spacing on, and
// Pump releases what came due — one frame per step on average, from a
// delay line that stays five to seven frames deep.
func frameLoop() func() {
	clk := sim.NewVClock()
	l := New(clk, &collector{}, &collector{}, Config{Seed: 1, DelayNS: 500_000, JitterNS: 200_000, ReorderProb: 0.05})
	data := make([]byte, 1514)
	return func() {
		l.Send(0, data, clk.Now())
		clk.Advance(100_000)
		l.Pump(clk.Now())
	}
}

// collector is a counting sink endpoint; it does not retain frames.
type collector struct{ frames int }

func (c *collector) DeliverFrame([]byte, int64) { c.frames++ }

func BenchmarkNetemFrame(b *testing.B) {
	step := frameLoop()
	for i := 0; i < 64; i++ {
		step() // grow the heap and the delivery scratch
	}
	b.ReportAllocs()
	for b.Loop() {
		step()
	}
}

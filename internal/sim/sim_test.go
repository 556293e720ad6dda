package sim

import "testing"

func TestVClockAdvances(t *testing.T) {
	c := NewVClock()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	c.Advance(1000)
	if c.Now() != 1000 {
		t.Fatalf("after advance: %d", c.Now())
	}
	c.Set(5000)
	if c.Now() != 5000 {
		t.Fatalf("after set: %d", c.Now())
	}
}

func TestVClockRejectsBackwards(t *testing.T) {
	c := NewVClock()
	c.Advance(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards must panic")
		}
	}()
	c.Set(50)
}

func TestSerializerPacesToRate(t *testing.T) {
	clk := NewVClock()
	// 1 Gbit/s, window of 2 frame times.
	s := NewSerializer(clk, 1e9, 2*12304) // 1538B = 12304ns at 1Gbps
	const frame = 1538
	admitted := 0
	// Drive for 10 ms of virtual time in 5 µs polls.
	for clk.Now() < 10e6 {
		for {
			if _, ok := s.Admit(frame); !ok {
				break
			}
			admitted++
		}
		clk.Advance(5000)
	}
	// Ideal frame count in 10 ms at 1 Gbit/s: 10e6 ns / 12304 ns = 812.7.
	want := int(10_000_000 / 12304)
	if admitted < want-3 || admitted > want+3 {
		t.Fatalf("admitted %d frames in 10ms, want ≈%d", admitted, want)
	}
}

func TestSerializerBackpressure(t *testing.T) {
	clk := NewVClock()
	s := NewSerializer(clk, 1e9, 1000) // tiny 1 µs window
	if _, ok := s.Admit(1538); !ok {
		t.Fatal("first frame must be admitted")
	}
	// The first frame books 12.3 µs; the window is 1 µs, so the next
	// admission must fail until time passes.
	if _, ok := s.Admit(1538); ok {
		t.Fatal("second frame must be refused while the link is booked")
	}
	if s.CanAdmit() || s.NextAdmitAt(clk.Now()) <= clk.Now() {
		t.Fatal("link should be booked past its window")
	}
	clk.Advance(12304)
	if _, ok := s.Admit(1538); !ok {
		t.Fatal("frame must be admitted after the link drains")
	}
}

func TestSerializerDoneAtMonotone(t *testing.T) {
	clk := NewVClock()
	s := NewSerializer(clk, 1e9, 1<<40)
	var last int64
	for i := 0; i < 100; i++ {
		at, ok := s.Admit(100)
		if !ok {
			t.Fatal("admission with huge window failed")
		}
		if at <= last {
			t.Fatalf("completion times not strictly increasing: %d then %d", last, at)
		}
		last = at
	}
}

func TestSerializerSharedContention(t *testing.T) {
	// Two producers sharing one bus get half the rate each, provided the
	// driver rotates the polling order (round-robin arbitration, as the
	// NIC machine stepper does).
	clk := NewVClock()
	bus := NewSerializer(clk, 1e9, 25000)
	counts := [2]int{}
	tick := 0
	for clk.Now() < 100e6 {
		first := tick % 2
		for j := 0; j < 2; j++ {
			i := (first + j) % 2
			if _, ok := bus.Admit(1538); ok {
				counts[i]++
			}
		}
		clk.Advance(5000)
		tick++
	}
	total := counts[0] + counts[1]
	want := int(100_000_000 / 12304)
	if total < want-3 || total > want+3 {
		t.Fatalf("total %d, want ≈%d", total, want)
	}
	// Split within 10 % of even.
	if diff := counts[0] - counts[1]; diff < -total/10 || diff > total/10 {
		t.Fatalf("unfair split: %v", counts)
	}
}

// TestSerializerRate: a new rate prices the admissions after it,
// and the bookings made before it keep their completion times.
func TestSerializerRate(t *testing.T) {
	clk := NewVClock()
	s := NewSerializer(clk, 1e9, 1<<40)
	if at, _ := s.Admit(1000); at != 8000 { // 8000 bits at 1 Gbit/s
		t.Fatalf("first admission done at %d, want 8000", at)
	}
	s.SetRate(4e9)
	if at, _ := s.Admit(1000); at != 8000+2000 {
		t.Fatalf("admission after SetRate(4e9) done at %d, want 10000", at)
	}
}

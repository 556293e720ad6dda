package dpdk

import (
	"math/rand"
	"testing"

	"repro/internal/cheri"
)

// TestMemSegAllocFreeWalk is a seeded random walk of Alloc and Free over
// mixed sizes and alignments. Every block lies inside the segment and on
// its alignment, no two live blocks overlap (each is filled with its own
// byte and checked when freed), an Alloc reuses exactly the most
// recently freed block of its size when that one is aligned and
// otherwise carves at the bump pointer, and an Alloc fails only when
// neither can serve it.
func TestMemSegAllocFreeWalk(t *testing.T) {
	const base, size = 0x10000, 1 << 20
	sizes := []uint64{64, 100, 1500, 2048, 8192, 8192, 32768}
	aligns := []uint64{1, 8, 64, 64}
	type block struct {
		addr, n uint64
		fill    byte
	}
	for seed := int64(1); seed <= 5; seed++ {
		mem := cheri.NewTMem(2 << 20)
		root, err := mem.Root().SetAddr(base).SetBounds(size)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := NewMemSeg(mem, base, size, root, true)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var live []block
		freed := map[uint64][]uint64{} // the model: per size, LIFO
		reused := 0
		for step := 0; step < 20000; step++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				b := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				view, err := seg.Slice(b.addr, int(b.n))
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range view {
					if v != b.fill {
						t.Fatalf("seed %d step %d: byte %d of block %#x+%d is %d, want its fill %d: another block overlapped it",
							seed, step, j, b.addr, b.n, v, b.fill)
					}
				}
				seg.Free(b.addr, b.n)
				freed[b.n] = append(freed[b.n], b.addr)
				continue
			}
			n, align := sizes[rng.Intn(len(sizes))], aligns[rng.Intn(len(aligns))]
			want := uint64(0) // 0: carved at the bump pointer
			if f := freed[n]; len(f) > 0 && f[len(f)-1]%align == 0 {
				want = f[len(f)-1]
			}
			bump := base + (seg.Used()+align-1)&^(align-1)
			addr, err := seg.Alloc(n, align)
			switch {
			case err != nil && want == 0 && bump+n > base+size:
				continue // exhausted, and rightly so
			case err != nil:
				t.Fatalf("seed %d step %d: Alloc(%d, %d) = %v with a block to give", seed, step, n, align, err)
			case want != 0 && addr != want:
				t.Fatalf("seed %d step %d: Alloc(%d) = %#x, want the freed %#x", seed, step, n, addr, want)
			case want == 0 && addr != bump:
				t.Fatalf("seed %d step %d: Alloc(%d, %d) = %#x, want the bump pointer's %#x", seed, step, n, align, addr, bump)
			case addr < base || addr+n > base+size || addr%align != 0:
				t.Fatalf("seed %d step %d: block %#x+%d outside the segment or off its %d alignment", seed, step, addr, n, align)
			}
			if want != 0 {
				freed[n] = freed[n][:len(freed[n])-1]
				reused++
			}
			for _, b := range live {
				if addr < b.addr+b.n && b.addr < addr+n {
					t.Fatalf("seed %d step %d: block %#x+%d overlaps live %#x+%d", seed, step, addr, n, b.addr, b.n)
				}
			}
			b := block{addr: addr, n: n, fill: byte(step%255 + 1)}
			view, err := seg.Slice(addr, int(n))
			if err != nil {
				t.Fatal(err)
			}
			for j := range view {
				view[j] = b.fill
			}
			live = append(live, b)
		}
		if reused == 0 {
			t.Fatalf("seed %d: the walk never reused a freed block", seed)
		}
	}
}

// TestMemSegFreeOutsideCarvedPanics: a block Alloc never handed out
// cannot be given back.
func TestMemSegFreeOutsideCarvedPanics(t *testing.T) {
	mem := cheri.NewTMem(1 << 20)
	seg, _ := NewMemSeg(mem, 0x1000, 1<<16, cheri.NullCap, false)
	addr, err := seg.Alloc(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct{ addr, n uint64 }{{addr, 0}, {addr, 8192}, {addr + 4096, 64}, {0, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Free(%#x, %d) outside the carved %#x+4096 did not panic", b.addr, b.n, addr)
				}
			}()
			seg.Free(b.addr, b.n)
		}()
	}
}

package cheri

import (
	"math"
	"math/rand"
	"testing"
)

// The use checks as they were before the success path became one
// inlined predicate (permits) and the failure path one out-of-line
// re-derivation (useFault, accessFault): four tests in order, each
// helper handed its own copy of the capability. They are the reference
// the fast path is held to — same nil-ness, same fault, same view.

func refCheck(c Cap, op string, perm Perm, kind FaultKind, addr uint64, n int) error {
	if !c.tag {
		return newFault(FaultTag, op, c, addr, n)
	}
	if c.Sealed() {
		return newFault(FaultSeal, op, c, addr, n)
	}
	if !c.perms.Has(perm) {
		return newFault(kind, op, c, addr, n)
	}
	if !c.InBounds(addr, n) {
		return newFault(FaultBounds, op, c, addr, n)
	}
	return nil
}

func refCheckLoad(c Cap, addr uint64, n int) error {
	return refCheck(c, "load", PermLoad, FaultPermLoad, addr, n)
}

func refCheckStore(c Cap, addr uint64, n int) error {
	return refCheck(c, "store", PermStore, FaultPermStore, addr, n)
}

func refCheckFetch(c Cap, addr uint64) error {
	return refCheck(c, "fetch", PermExecute, FaultPermExecute, addr, 4)
}

func refCheckedSlice(m *TMem, c Cap, addr uint64, n int) ([]byte, error) {
	if err := refCheckLoad(c, addr, n); err != nil {
		return nil, err
	}
	if err := refCheckStore(c, addr, n); err != nil {
		return nil, err
	}
	if !m.inRange(addr, n) {
		return nil, newFault(FaultBounds, "slice", c, addr, n)
	}
	return m.view(addr, n), nil
}

func refCheckedSliceRO(m *TMem, c Cap, addr uint64, n int) ([]byte, error) {
	if err := refCheckLoad(c, addr, n); err != nil {
		return nil, err
	}
	if !m.inRange(addr, n) {
		return nil, newFault(FaultBounds, "slice", c, addr, n)
	}
	return m.view(addr, n), nil
}

// refLoad and refStore are TMem.Load and Store as they were: the use
// check, then physical range under the access's own op.
func refLoad(m *TMem, c Cap, addr uint64, dst []byte) error {
	if err := refCheckLoad(c, addr, len(dst)); err != nil {
		return err
	}
	if !m.inRange(addr, len(dst)) {
		return newFault(FaultBounds, "load", c, addr, len(dst))
	}
	copy(dst, m.view(addr, len(dst)))
	return nil
}

func refStore(m *TMem, c Cap, addr uint64, src []byte) error {
	if err := refCheckStore(c, addr, len(src)); err != nil {
		return err
	}
	if !m.inRange(addr, len(src)) {
		return newFault(FaultBounds, "store", c, addr, len(src))
	}
	copy(m.view(addr, len(src)), src)
	return nil
}

// checkMemSize is the memory every comparison runs against: small, so
// that random ranges land inside, across and past its end, and one
// hugepage, so that every in-range view is one a reference takes
// (hugepage boundaries are flat_test.go's).
const checkMemSize = 4096

// sameErr fails unless got and want are both nil or both *Fault with
// the same kind, op, capability, address and size.
func sameErr(t testing.TB, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %v, reference %v", what, got, want)
	}
	if got == nil {
		return
	}
	gf, ok1 := got.(*Fault)
	wf, ok2 := want.(*Fault)
	if !ok1 || !ok2 || *gf != *wf {
		t.Fatalf("%s: got %#v, reference %#v", what, got, want)
	}
}

// sameSlice fails unless got and want, views of m, cover the same
// range: both start at addr.
func sameSlice(t testing.TB, what string, m *TMem, addr uint64, got, want []byte) {
	t.Helper()
	if len(got) != len(want) || cap(got) != cap(want) || len(got) > 0 && (&got[0] != &m.view(addr, 1)[0] || &want[0] != &m.view(addr, 1)[0]) {
		t.Fatalf("%s: slice len %d cap %d, reference len %d cap %d (or not at %#x)", what, len(got), cap(got), len(want), cap(want), addr)
	}
}

// compareChecks runs every use check once on c, addr, n against its
// reference, the slices (and, for n in 0..64, the data accessors) on m.
// It returns CheckedSlice's error, the one that can end in any outcome.
func compareChecks(t testing.TB, m *TMem, c Cap, addr uint64, n int) error {
	t.Helper()
	sameErr(t, "CheckLoad", c.CheckLoad(addr, n), refCheckLoad(c, addr, n))
	sameErr(t, "CheckStore", c.CheckStore(addr, n), refCheckStore(c, addr, n))
	sameErr(t, "CheckFetch", c.CheckFetch(addr), refCheckFetch(c, addr))

	got, err := m.CheckedSliceRO(c, addr, n)
	want, rerr := refCheckedSliceRO(m, c, addr, n)
	sameErr(t, "CheckedSliceRO", err, rerr)
	sameSlice(t, "CheckedSliceRO", m, addr, got, want)

	got, err = m.CheckedSlice(c, addr, n)
	want, rerr = refCheckedSlice(m, c, addr, n)
	sameErr(t, "CheckedSlice", err, rerr)
	sameSlice(t, "CheckedSlice", m, addr, got, want)
	sliceErr := err

	if n < 0 || n > 64 {
		return sliceErr
	}
	var buf [64]byte
	sameErr(t, "Load", m.Load(c, addr, buf[:n]), refLoad(m, c, addr, buf[:n]))
	sameErr(t, "Store", m.Store(c, addr, buf[:n]), refStore(m, c, addr, buf[:n]))
	return sliceErr
}

// near draws an address or length from where the checks have edges:
// zero, memory's end, 2^64, a random point of memory or of the whole
// address space.
func near(r *rand.Rand) uint64 {
	k := uint64(r.Intn(40))
	switch r.Intn(6) {
	case 0:
		return k
	case 1:
		return checkMemSize - k
	case 2:
		return checkMemSize + k
	case 3:
		return math.MaxUint64 - k
	case 4:
		return uint64(r.Intn(checkMemSize))
	}
	return r.Uint64()
}

// randCase draws one capability, address and length: tagged or not,
// sealed or not, any permission set, bounds anywhere up to and across
// 2^64, an address at or just past either bound, and a length that is
// negative, zero, small, memory-sized or huge.
func randCase(r *rand.Rand) (Cap, uint64, int) {
	c := Cap{
		base:   near(r),
		length: near(r),
		perms:  Perm(r.Intn(int(PermAll) + 1)),
		otype:  OTypeUnsealed,
		tag:    r.Intn(6) != 0,
	}
	if r.Intn(6) == 0 {
		c.otype = OTypeFirst + OType(r.Intn(int(OTypeLast)))
	}
	var n int
	switch r.Intn(6) {
	case 0:
		n = -r.Intn(3)
	case 1, 2:
		n = 1 + r.Intn(64)
	case 3:
		n = 1 + r.Intn(2*checkMemSize)
	case 4:
		n = int(c.length) // the whole capability, whatever it is
	default:
		n = math.MaxInt - r.Intn(4)
	}
	var addr uint64
	switch r.Intn(5) {
	case 0:
		addr = c.base + uint64(r.Intn(40))
	case 1:
		addr = c.base - 1 - uint64(r.Intn(4))
	case 2:
		addr = c.base + c.length - uint64(n) + uint64(r.Intn(3)) - 1 // ending at the top, ±1
	case 3:
		addr = c.base + c.length - uint64(r.Intn(40))
	default:
		addr = near(r)
	}
	c.addr = near(r)
	return c, addr, n
}

// TestChecksMatchReference holds every use check to the reference on
// hand-picked edges and 50 000 drawn cases, each of the eight
// permission sets over load, store and execute forced in turn. The
// drawn cases must reach every outcome a writable slice has.
func TestChecksMatchReference(t *testing.T) {
	root := NewRoot(0, checkMemSize, PermAll)
	top := NewRoot(math.MaxUint64-15, 16, PermAll)
	wrapped := Cap{base: math.MaxUint64 - 15, length: 32, perms: PermAll, otype: OTypeUnsealed, tag: true}
	for _, tc := range []struct {
		name string
		c    Cap
		addr uint64
		n    int
	}{
		{"null", NullCap, 0, 1},
		{"root, all of memory", root, 0, checkMemSize},
		{"root, one past memory", root, 0, checkMemSize + 1},
		{"root, zero length", root, 16, 0},
		{"root, negative length", root, 16, -1},
		{"root, wrapping length", root, 16, math.MaxInt},
		{"wider than memory", NewRoot(0, 1<<20, PermAll), checkMemSize - 8, 16},
		{"the last 16 bytes of the address space", top, math.MaxUint64 - 15, 16},
		{"one past the address space", top, math.MaxUint64 - 15, 17},
		{"bounds that wrap", wrapped, math.MaxUint64 - 15, 16},
		{"bounds that wrap, past 2^64", wrapped, 0, 1},
		{"sealed", Cap{length: checkMemSize, perms: PermAll, otype: 7, tag: true}, 0, 16},
		{"untagged and sealed", Cap{length: checkMemSize, perms: PermAll, otype: 7}, 0, 16},
		{"no perms, out of bounds", NewRoot(64, 64, 0), 0, 16},
		{"load only, out of bounds", NewRoot(64, 64, PermLoad), 0, 16},
		{"store only, out of bounds", NewRoot(64, 64, PermStore), 0, 16},
	} {
		t.Run(tc.name, func(t *testing.T) { compareChecks(t, NewTMem(checkMemSize), tc.c, tc.addr, tc.n) })
	}

	type outcome struct {
		kind FaultKind
		op   string
	}
	seen := map[outcome]int{}
	m := NewTMem(checkMemSize)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		c, addr, n := randCase(r)
		c.perms = c.perms&^(PermLoad|PermStore|PermExecute) | Perm(i%8)
		var o outcome
		if f, ok := compareChecks(t, m, c, addr, n).(*Fault); ok {
			o = outcome{f.Kind, f.Op}
		}
		seen[o]++
	}
	for _, o := range []outcome{
		{},
		{FaultTag, "load"},
		{FaultSeal, "load"},
		{FaultPermLoad, "load"},
		{FaultBounds, "load"},
		{FaultPermStore, "store"},
		{FaultBounds, "slice"},
	} {
		if seen[o] == 0 {
			t.Errorf("no drawn case ended in %v under %q: %v", o.kind, o.op, seen)
		}
	}
}

// FuzzCapCheck is the same fence on fuzzer-chosen fields: any
// capability, address and length must fault exactly as the reference
// does and, when it passes, give the reference's view.
func FuzzCapCheck(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 32; i++ {
		c, addr, n := randCase(r)
		f.Add(c.base, c.length, c.addr, uint16(c.perms), uint32(c.otype), c.tag, addr, n)
	}
	f.Add(uint64(0), uint64(checkMemSize), uint64(0), uint16(PermAll), uint32(OTypeUnsealed), true, uint64(0), checkMemSize)
	f.Add(uint64(math.MaxUint64-15), uint64(32), uint64(0), uint16(PermAll), uint32(OTypeUnsealed), true, uint64(math.MaxUint64-15), 16)
	f.Fuzz(func(t *testing.T, base, length, cursor uint64, perms uint16, otype uint32, tag bool, addr uint64, n int) {
		c := Cap{base: base, length: length, addr: cursor, perms: Perm(perms), otype: OType(otype), tag: tag}
		compareChecks(t, NewTMem(checkMemSize), c, addr, n)
	})
}

var sliceSink []byte

func benchmarkCheckedSlice(b *testing.B, rw bool, n int) {
	m := NewTMem(1 << 20)
	c, err := m.Root().SetAddr(0x1000).SetBounds(64 << 10)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if rw {
			sliceSink, err = m.CheckedSlice(c, 0x1000, n)
		} else {
			sliceSink, err = m.CheckedSliceRO(c, 0x1000, n)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The two sizes the datapath checks most: a 16-byte descriptor and a
// full 1448-byte segment payload.
func BenchmarkCheckedSliceRO(b *testing.B) {
	b.Run("16B", func(b *testing.B) { benchmarkCheckedSlice(b, false, 16) })
	b.Run("1448B", func(b *testing.B) { benchmarkCheckedSlice(b, false, 1448) })
}

func BenchmarkCheckedSlice(b *testing.B) {
	b.Run("16B", func(b *testing.B) { benchmarkCheckedSlice(b, true, 16) })
	b.Run("1448B", func(b *testing.B) { benchmarkCheckedSlice(b, true, 1448) })
}

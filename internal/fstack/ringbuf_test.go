package fstack

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cheri"
	"repro/internal/dpdk"
)

// testSegBytes is the size of a testSeg segment.
const testSegBytes = 2 << 20

func testSeg(t testing.TB, capMode bool) (*dpdk.MemSeg, *cheri.TMem) {
	t.Helper()
	mem := cheri.NewTMem(4 << 20)
	var c cheri.Cap
	if capMode {
		var err error
		c, err = mem.Root().SetAddr(0x1000).SetBounds(testSegBytes)
		if err != nil {
			t.Fatal(err)
		}
		c, err = c.AndPerms(cheri.PermData)
		if err != nil {
			t.Fatal(err)
		}
	}
	seg, err := dpdk.NewMemSeg(mem, 0x1000, testSegBytes, c, capMode)
	if err != nil {
		t.Fatal(err)
	}
	return seg, mem
}

func TestSockBufBasics(t *testing.T) {
	seg, _ := testSeg(t, false)
	b, err := newSockBuf(seg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 || b.Free() != 1024 {
		t.Fatal("fresh buffer not empty")
	}
	n, err := b.writeFrom(seg, []byte("hello world"))
	if err != nil || n != 11 {
		t.Fatalf("writeFrom: %d, %v", n, err)
	}
	dst := make([]byte, 5)
	if n, _ := b.readInto(seg, dst); n != 5 || string(dst) != "hello" {
		t.Fatalf("readInto: %q", dst)
	}
	if b.Len() != 6 {
		t.Fatalf("len after partial read: %d", b.Len())
	}
}

func TestSockBufWrapAround(t *testing.T) {
	seg, _ := testSeg(t, false)
	b, _ := newSockBuf(seg, 64)
	// Fill, drain, refill across the wrap point repeatedly.
	pattern := []byte("0123456789abcdefghijklmnopqrstuv") // 32 bytes
	for round := 0; round < 20; round++ {
		n, err := b.writeFrom(seg, pattern)
		if err != nil || n != len(pattern) {
			t.Fatalf("round %d write: %d %v", round, n, err)
		}
		got := make([]byte, len(pattern))
		if n, _ := b.readInto(seg, got); n != len(pattern) {
			t.Fatalf("round %d read: %d", round, n)
		}
		if !bytes.Equal(got, pattern) {
			t.Fatalf("round %d corrupted: %q", round, got)
		}
	}
}

func TestSockBufFillsExactly(t *testing.T) {
	seg, _ := testSeg(t, false)
	b, _ := newSockBuf(seg, 128)
	big := make([]byte, 200)
	n, err := b.writeFrom(seg, big)
	if err != nil || n != 128 {
		t.Fatalf("overfill stored %d, %v", n, err)
	}
	if b.Free() != 0 {
		t.Fatal("buffer should be full")
	}
	if n, _ := b.writeFrom(seg, []byte{1}); n != 0 {
		t.Fatal("write into full buffer must store nothing")
	}
}

func TestSockBufPeekAndConsume(t *testing.T) {
	seg, _ := testSeg(t, false)
	b, _ := newSockBuf(seg, 256)
	b.writeFrom(seg, []byte("abcdefghij"))
	dst := make([]byte, 4)
	if n, err := b.peek(seg, 2, dst); err != nil || n != 4 || string(dst) != "cdef" {
		t.Fatalf("peek: %q %v", dst[:n], err)
	}
	// Peek does not consume.
	if b.Len() != 10 {
		t.Fatal("peek consumed")
	}
	if err := b.consume(3); err != nil {
		t.Fatal(err)
	}
	if n, _ := b.peek(seg, 0, dst); n != 4 || string(dst) != "defg" {
		t.Fatalf("peek after consume: %q", dst)
	}
	if err := b.consume(100); err == nil {
		t.Fatal("over-consume accepted")
	}
	if _, err := b.peek(seg, 100, dst); err == nil {
		t.Fatal("peek beyond buffer accepted")
	}
}

// TestSockBufRejectsBadSize: a ring is only ever built at a size the
// stack's tuning passed, so the tuning is where a size no ring can have
// — not a power of two, negative, or past what 32-bit counters hold —
// is refused, for both rings; 0 (the default) and every power of two up
// to maxRingBytes pass.
func TestSockBufRejectsBadSize(t *testing.T) {
	for _, v := range []int{1000, 3 << 20, -4096, maxRingBytes << 1} {
		for _, tune := range []TCPTuning{{SndBufBytes: v}, {RcvBufBytes: v}} {
			if tune.Validate() == nil {
				t.Errorf("%+v accepted", tune)
			}
		}
	}
	for _, v := range []int{0, 1, 4096, maxRingBytes} {
		if err := (TCPTuning{SndBufBytes: v, RcvBufBytes: v}).Validate(); err != nil {
			t.Errorf("size %d refused: %v", v, err)
		}
	}
}

// Property: interleaved writes and reads preserve the byte stream (FIFO
// order, no loss, no duplication).
func TestQuickSockBufStreamIntegrity(t *testing.T) {
	seg, _ := testSeg(t, false)
	b, err := newSockBuf(seg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var expect []byte // modelled contents
	next := byte(0)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			if op%2 == 0 { // write op%97 bytes
				n := int(op % 97)
				src := make([]byte, n)
				for i := range src {
					src[i] = next
					next++
				}
				w, err := b.writeFrom(seg, src)
				if err != nil {
					return false
				}
				expect = append(expect, src[:w]...)
				// bytes beyond w are lost from the model: rewind next
				next -= byte(n - w)
			} else { // read op%73 bytes
				dst := make([]byte, int(op%73))
				r, err := b.readInto(seg, dst)
				if err != nil {
					return false
				}
				if !bytes.Equal(dst[:r], expect[:r]) {
					return false
				}
				expect = expect[r:]
			}
			if b.Len() != len(expect) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSockBufWriteAtCommit pins the in-ring reassembly primitives:
// writeAt parks bytes ahead of the write point — across the ring's wrap
// too — without moving Len or Free (so the window the connection
// advertises from Free ignores them), commit makes them readable in
// place, and neither reaches outside the free space.
func TestSockBufWriteAtCommit(t *testing.T) {
	seg, _ := testSeg(t, true)
	b, err := newSockBuf(seg, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Put the write point 8 bytes before the wrap with 16 bytes unread.
	b.writeFrom(seg, make([]byte, 56))
	b.readInto(seg, make([]byte, 40))
	stream := []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKL") // 48 = Free()
	if b.Len() != 16 || b.Free() != len(stream) {
		t.Fatalf("setup: len %d free %d", b.Len(), b.Free())
	}
	// Out of order: the tail (wholly past the wrap), then a piece
	// straddling it, and only then the head.
	for _, r := range [][2]int{{30, 48}, {4, 30}} {
		if err := b.writeAt(seg, r[0], stream[r[0]:r[1]]); err != nil {
			t.Fatalf("writeAt [%d,%d): %v", r[0], r[1], err)
		}
		if b.Len() != 16 || b.Free() != 48 {
			t.Fatalf("parking [%d,%d) moved the ring: len %d free %d", r[0], r[1], b.Len(), b.Free())
		}
	}
	if n, err := b.writeFrom(seg, stream[:4]); n != 4 || err != nil {
		t.Fatal(n, err)
	}
	if err := b.commit(44); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	b.readInto(seg, got[:16]) // the zeros written first
	if n, _ := b.readInto(seg, got); n != len(stream) || !bytes.Equal(got[:n], stream) {
		t.Fatalf("read %q, want %q", got[:n], stream)
	}

	// Refusals: the ring is empty again, Free() == 64.
	if err := b.writeAt(seg, 60, make([]byte, 5)); err == nil {
		t.Fatal("writeAt past the free space accepted")
	}
	if err := b.writeAt(seg, -1, make([]byte, 1)); err == nil {
		t.Fatal("writeAt at a negative offset accepted")
	}
	if err := b.writeAt(seg, 60, make([]byte, 4)); err != nil {
		t.Fatalf("writeAt flush with the free space: %v", err)
	}
	b.writeFrom(seg, make([]byte, 10))
	if err := b.writeAt(seg, 51, make([]byte, 4)); err == nil {
		t.Fatal("writeAt ignored the bytes now buffered")
	}
	if b.commit(55) == nil || b.commit(-1) == nil {
		t.Fatal("commit outside the free space accepted")
	}
	if err := b.commit(54); err != nil || b.Free() != 0 {
		t.Fatalf("commit of all the free space: %v, free %d", err, b.Free())
	}
}

// TestSockBufWriteAtBacksLazyRing: an idle connection's lazy ring costs
// no segment memory until data arrives, and the first arrival may be out
// of order.
func TestSockBufWriteAtBacksLazyRing(t *testing.T) {
	seg, _ := testSeg(t, false)
	b, err := newLazySockBuf(4096)
	if err != nil {
		t.Fatal(err)
	}
	used := seg.Used()
	if err := b.writeAt(seg, 5000, []byte("x")); err == nil || b.backed || seg.Used() != used {
		t.Fatalf("a refused writeAt must not back the ring: err %v backed %v", err, b.backed)
	}
	if err := b.writeAt(seg, 100, []byte("parked")); err != nil {
		t.Fatal(err)
	}
	if !b.backed || seg.Used() < used+4096 {
		t.Fatalf("first writeAt did not back the ring: backed %v, segment grew %d", b.backed, seg.Used()-used)
	}
	if b.Len() != 0 || b.Free() != 4096 {
		t.Fatalf("parked bytes count as buffered: len %d free %d", b.Len(), b.Free())
	}
	b.writeFrom(seg, make([]byte, 100))
	b.commit(6)
	got := make([]byte, 200)
	if n, _ := b.readInto(seg, got); n != 106 || string(got[100:106]) != "parked" {
		t.Fatalf("read %d bytes ending %q", n, got[100:106])
	}
}

// newSockBuf / newLazySockBuf build one standalone ring for the tests
// (the stack itself builds rings in place inside a tcpConn). newSockBuf
// backs its ring at once, so a test can place it in the segment;
// newLazySockBuf leaves it to back on its first write, as a
// connection's ring does.
func newSockBuf(seg *dpdk.MemSeg, size int) (*sockBuf, error) {
	b, err := newLazySockBuf(size)
	if err != nil {
		return nil, err
	}
	return b, b.back(seg)
}

func newLazySockBuf(size int) (*sockBuf, error) {
	if err := (TCPTuning{SndBufBytes: size}).Validate(); err != nil || size == 0 {
		return nil, fmt.Errorf("no ring of %d bytes: %v", size, err)
	}
	return &sockBuf{size: uint32(size)}, nil
}

// TestSockBufAcrossHugepage: a ring that straddles a hugepage boundary
// moves its bytes through one view on each side of it, as it does at
// its wrap; writeFrom, writeAt, peek and readInto all cross it, in both
// modes, with no byte lost or refused.
func TestSockBufAcrossHugepage(t *testing.T) {
	const size = 4 << 10 // the test segment reaches a page past the boundary
	for _, capMode := range []bool{false, true} {
		seg, mem := testSeg(t, capMode)
		edge := mem.PageEnd(0x1000)
		if _, err := seg.Alloc(edge-size/2-0x1000, 1); err != nil {
			t.Fatal(err)
		}
		b, err := newSockBuf(seg, size)
		if err != nil {
			t.Fatal(err)
		}
		if b.base != edge-size/2 {
			t.Fatalf("ring at %#x, want it across the boundary at %#x", b.base, edge)
		}
		data := make([]byte, size/2+100)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if n, err := b.writeFrom(seg, data[:size/2-10]); err != nil || n != size/2-10 {
			t.Fatalf("capMode %v: writeFrom up to the boundary: %d, %v", capMode, n, err)
		}
		if err := b.writeAt(seg, 0, data[size/2-10:]); err != nil { // across it
			t.Fatalf("capMode %v: writeAt across the boundary: %v", capMode, err)
		}
		if err := b.commit(110); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 200)
		if n, err := b.peek(seg, size/2-50, got); err != nil || n != 150 || !bytes.Equal(got[:n], data[size/2-50:]) {
			t.Fatalf("capMode %v: peek across the boundary: %d, %v", capMode, n, err)
		}
		got = make([]byte, len(data))
		if n, err := b.readInto(seg, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Fatalf("capMode %v: readInto across the boundary: %d, %v", capMode, n, err)
		}
	}
}

// TestSockBufCountersWrap: a ring's 32-bit counters wrap, and nothing a
// caller sees may change when they do. Two rings take one seeded walk
// of writeFrom, writeAt+commit, peek, readInto and consume — one with
// its counters at 0, one with them just below 2³² — and must return the
// same counts, errors and bytes at every step. Whenever both are empty
// the walk may wind both back by the same whole number of rings (so
// each still holds what it parked where it parked it), which carries
// the second ring across the wrap again.
func TestSockBufCountersWrap(t *testing.T) {
	const size = 4096
	seg, _ := testSeg(t, false)
	ref, err := newSockBuf(seg, size)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSockBuf(seg, size)
	if err != nil {
		t.Fatal(err)
	}
	const start = 1<<32 - 3*size/2
	b.r, b.w = start, start
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 2*size)
	rng.Read(src)
	gotA, gotB := make([]byte, 2*size), make([]byte, 2*size)
	same := func(step int, op string, na, nb int, ea, eb error) {
		t.Helper()
		if na != nb || (ea == nil) != (eb == nil) {
			t.Fatalf("step %d %s: ring at 0 → %d, %v; ring across the wrap → %d, %v", step, op, na, ea, nb, eb)
		}
		if ref.Len() != b.Len() || ref.Free() != b.Free() {
			t.Fatalf("step %d %s: len/free %d/%d at 0, %d/%d across the wrap", step, op, ref.Len(), ref.Free(), b.Len(), b.Free())
		}
	}
	wraps := 0
	for step := 0; step < 20000; step++ {
		before := b.w
		// Lengths and offsets reach past what the rings hold, so every
		// refusal is exercised as well.
		n := rng.Intn(size + size/4)
		off := rng.Intn(size+size/4) - size/8
		from := rng.Intn(len(src) - n)
		switch op := rng.Intn(5); op {
		case 0:
			na, ea := ref.writeFrom(seg, src[from:from+n])
			nb, eb := b.writeFrom(seg, src[from:from+n])
			same(step, "writeFrom", na, nb, ea, eb)
		case 1:
			n = min(n, size/2)
			ea, eb := ref.writeAt(seg, off, src[from:from+n]), b.writeAt(seg, off, src[from:from+n])
			same(step, "writeAt", 0, 0, ea, eb)
			k := rng.Intn(max(off+n, 0) + 2)
			same(step, "commit", 0, 0, ref.commit(k), b.commit(k))
		case 2:
			na, ea := ref.peek(seg, off, gotA[:n])
			nb, eb := b.peek(seg, off, gotB[:n])
			same(step, "peek", na, nb, ea, eb)
			if !bytes.Equal(gotA[:na], gotB[:nb]) {
				t.Fatalf("step %d: peek at %d returned different bytes", step, off)
			}
		case 3:
			na, ea := ref.readInto(seg, gotA[:n])
			nb, eb := b.readInto(seg, gotB[:n])
			same(step, "readInto", na, nb, ea, eb)
			if !bytes.Equal(gotA[:na], gotB[:nb]) {
				t.Fatalf("step %d: readInto returned different bytes", step)
			}
		case 4:
			k := rng.Intn(ref.Len()+2) - 1
			same(step, "consume", 0, 0, ref.consume(k), b.consume(k))
		}
		if b.w < before {
			wraps++
		}
		if ref.Len() == 0 && rng.Intn(8) == 0 {
			ref.r = ref.w % size
			ref.w = ref.r
			b.r, b.w = start+ref.r, start+ref.r
		}
	}
	if wraps < 100 {
		t.Fatalf("the write counter wrapped %d times, want the walk to cross 2³² at least 100 times", wraps)
	}
}

package fstack

import (
	"fmt"

	"repro/internal/dpdk"
)

// sockBuf is a byte ring in stack segment memory, used for socket send
// and receive buffers. Copies in and out go through the segment, so in
// capability mode they are checked accesses — ff_write's measured work.
//
// Counters are absolute (never wrap in practice: uint64); for the send
// buffer the read counter is advanced by ACKs while peek serves
// (re)transmission, giving retention-until-acknowledged for free.
type sockBuf struct {
	seg    *dpdk.MemSeg
	base   uint64
	size   int // power of two
	r, w   uint64
	backed bool // segment memory reserved: from the first write until release
}

// init makes b an empty, unbacked ring of the given power-of-two size. It
// reserves its segment memory on its first write: a connection that never
// moves data costs no segment bytes — the per-idle-conn figure Scenario 8
// measures.
func (b *sockBuf) init(seg *dpdk.MemSeg, size int) error {
	if size <= 0 || size&(size-1) != 0 {
		return fmt.Errorf("fstack: socket buffer size %d not a power of two", size)
	}
	*b = sockBuf{seg: seg, size: size}
	return nil
}

// back reserves the ring's segment memory. Idempotent; called from the
// write paths (reads of an unbacked ring see Len()==0 and never touch the
// segment).
func (b *sockBuf) back() error {
	if b.backed {
		return nil
	}
	base, err := b.seg.Alloc(uint64(b.size), 64)
	if err != nil {
		return err
	}
	b.base = base
	b.backed = true
	return nil
}

// release empties the ring and gives its segment memory back: the
// connection will neither read nor write it again. The next write, by a
// recycled connection, backs it anew.
func (b *sockBuf) release() {
	if b.backed {
		b.seg.Free(b.base, uint64(b.size))
	}
	b.base, b.r, b.w, b.backed = 0, 0, 0, false
}

// span is where the n bytes at logical position pos begin in segment
// memory, and how many of them one view holds: it ends at the ring's
// wrap or at a hugepage boundary, whichever comes first.
func (b *sockBuf) span(pos uint64, n int) (uint64, int) {
	addr := b.base + pos%uint64(b.size)
	return addr, int(min(uint64(n), b.base+uint64(b.size)-addr, b.seg.PageEnd(addr)-addr))
}

// Len returns buffered bytes.
func (b *sockBuf) Len() int { return int(b.w - b.r) }

// Free returns remaining space.
func (b *sockBuf) Free() int { return b.size - b.Len() }

// writeFrom appends up to len(src) bytes from a plain slice, returning
// the count stored.
func (b *sockBuf) writeFrom(src []byte) (int, error) {
	n := min(len(src), b.Free())
	if err := b.writeAt(0, src[:n]); err != nil {
		return 0, err
	}
	b.w += uint64(n)
	return n, nil
}

// writeAt stores src at logical offset off past the write point without
// moving it: an out-of-order payload parked where the in-order stream
// will reach it. The bytes stay outside Len, Free and every reader until
// commit passes the write point over them. It refuses whatever does not
// lie wholly inside the free space.
func (b *sockBuf) writeAt(off int, src []byte) error {
	if off < 0 || off+len(src) > b.Free() {
		return fmt.Errorf("fstack: writeAt [%d,%d) outside the %d free bytes", off, off+len(src), b.Free())
	}
	if err := b.back(); err != nil {
		return err
	}
	pos := b.w + uint64(off)
	for len(src) > 0 {
		addr, chunk := b.span(pos, len(src))
		dst, err := b.seg.Slice(addr, chunk)
		if err != nil {
			return err
		}
		copy(dst, src[:chunk])
		pos += uint64(chunk)
		src = src[chunk:]
	}
	return nil
}

// commit advances the write point over n bytes writeAt already stored.
func (b *sockBuf) commit(n int) error {
	if n < 0 || n > b.Free() {
		return fmt.Errorf("fstack: commit %d into %d free bytes", n, b.Free())
	}
	b.w += uint64(n)
	return nil
}

// readInto consumes up to len(dst) bytes into a plain slice.
func (b *sockBuf) readInto(dst []byte) (int, error) {
	n := min(len(dst), b.Len())
	read := 0
	for read < n {
		addr, chunk := b.span(b.r, n-read)
		src, err := b.seg.SliceRO(addr, chunk)
		if err != nil {
			return read, err
		}
		copy(dst[read:read+chunk], src)
		b.r += uint64(chunk)
		read += chunk
	}
	return read, nil
}

// peek copies up to len(dst) bytes starting at logical offset off past
// the read point, without consuming (transmission and retransmission).
func (b *sockBuf) peek(off int, dst []byte) (int, error) {
	if off < 0 || off > b.Len() {
		return 0, fmt.Errorf("fstack: peek offset %d outside buffer of %d", off, b.Len())
	}
	n := min(len(dst), b.Len()-off)
	read := 0
	pos := b.r + uint64(off)
	for read < n {
		addr, chunk := b.span(pos, n-read)
		src, err := b.seg.SliceRO(addr, chunk)
		if err != nil {
			return read, err
		}
		copy(dst[read:read+chunk], src)
		pos += uint64(chunk)
		read += chunk
	}
	return read, nil
}

// consume drops n bytes from the front (ACK advancing snd.una).
func (b *sockBuf) consume(n int) error {
	if n < 0 || n > b.Len() {
		return fmt.Errorf("fstack: consume %d of %d buffered", n, b.Len())
	}
	b.r += uint64(n)
	return nil
}

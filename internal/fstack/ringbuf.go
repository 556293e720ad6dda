package fstack

import (
	"fmt"

	"repro/internal/dpdk"
)

// sockBuf is a byte ring in stack segment memory, used for socket send
// and receive buffers. Copies in and out go through the segment, so in
// capability mode they are checked accesses — ff_write's measured work.
// The ring does not name its segment: the connection's stack owns it
// and passes it to every call that touches the bytes, which keeps the
// header at 24 bytes inside tcpConn.
//
// The read and write counters are 32-bit and wrap. Every size is a power
// of two, so it divides 2³²: w − r is the buffered length and pos % size
// the ring offset across a wrap as before it. Compare counters only by
// their difference, never as absolutes. For the send buffer the read
// counter is advanced by ACKs while peek serves (re)transmission, giving
// retention-until-acknowledged for free.
//
// A new ring is just its size, a power of two (TCPTuning.Validate holds
// every tuned size to that): it reserves its segment memory on its first
// write, so a connection that never moves data costs no segment bytes —
// the per-idle-conn figure Scenario 8 measures.
type sockBuf struct {
	base   uint64
	size   uint32 // power of two
	r, w   uint32
	backed bool // segment memory reserved: from the first write until release
}

// back reserves the ring's segment memory. Idempotent; called from the
// write paths (reads of an unbacked ring see Len()==0 and never touch the
// segment).
func (b *sockBuf) back(seg *dpdk.MemSeg) error {
	if b.backed {
		return nil
	}
	base, err := seg.Alloc(uint64(b.size), 64)
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
func (b *sockBuf) release(seg *dpdk.MemSeg) {
	if b.backed {
		seg.Free(b.base, uint64(b.size))
	}
	b.base, b.r, b.w, b.backed = 0, 0, 0, false
}

// span is where the n bytes at logical position pos begin in segment
// memory, and how many of them one view holds: it ends at the ring's
// wrap or at a hugepage boundary, whichever comes first.
func (b *sockBuf) span(seg *dpdk.MemSeg, pos uint32, n int) (uint64, int) {
	addr := b.base + uint64(pos%b.size)
	return addr, int(min(uint64(n), b.base+uint64(b.size)-addr, seg.PageEnd(addr)-addr))
}

// Len returns buffered bytes.
func (b *sockBuf) Len() int { return int(b.w - b.r) }

// Free returns remaining space.
func (b *sockBuf) Free() int { return int(b.size) - b.Len() }

// writeFrom appends up to len(src) bytes from a plain slice, returning
// the count stored.
func (b *sockBuf) writeFrom(seg *dpdk.MemSeg, src []byte) (int, error) {
	n := min(len(src), b.Free())
	if err := b.writeAt(seg, 0, src[:n]); err != nil {
		return 0, err
	}
	b.w += uint32(n)
	return n, nil
}

// writeAt stores src at logical offset off past the write point without
// moving it: an out-of-order payload parked where the in-order stream
// will reach it. The bytes stay outside Len, Free and every reader until
// commit passes the write point over them. It refuses whatever does not
// lie wholly inside the free space.
func (b *sockBuf) writeAt(seg *dpdk.MemSeg, off int, src []byte) error {
	if off < 0 || off+len(src) > b.Free() {
		return fmt.Errorf("fstack: writeAt [%d,%d) outside the %d free bytes", off, off+len(src), b.Free())
	}
	if err := b.back(seg); err != nil {
		return err
	}
	pos := b.w + uint32(off)
	for len(src) > 0 {
		addr, chunk := b.span(seg, pos, len(src))
		dst, err := seg.Slice(addr, chunk)
		if err != nil {
			return err
		}
		copy(dst, src[:chunk])
		pos += uint32(chunk)
		src = src[chunk:]
	}
	return nil
}

// commit advances the write point over n bytes writeAt already stored.
func (b *sockBuf) commit(n int) error {
	if n < 0 || n > b.Free() {
		return fmt.Errorf("fstack: commit %d into %d free bytes", n, b.Free())
	}
	b.w += uint32(n)
	return nil
}

// readInto consumes up to len(dst) bytes into a plain slice.
func (b *sockBuf) readInto(seg *dpdk.MemSeg, dst []byte) (int, error) {
	n := min(len(dst), b.Len())
	read := 0
	for read < n {
		addr, chunk := b.span(seg, b.r, n-read)
		src, err := seg.SliceRO(addr, chunk)
		if err != nil {
			return read, err
		}
		copy(dst[read:read+chunk], src)
		b.r += uint32(chunk)
		read += chunk
	}
	return read, nil
}

// peek copies up to len(dst) bytes starting at logical offset off past
// the read point, without consuming (transmission and retransmission).
func (b *sockBuf) peek(seg *dpdk.MemSeg, off int, dst []byte) (int, error) {
	if off < 0 || off > b.Len() {
		return 0, fmt.Errorf("fstack: peek offset %d outside buffer of %d", off, b.Len())
	}
	n := min(len(dst), b.Len()-off)
	read := 0
	pos := b.r + uint32(off)
	for read < n {
		addr, chunk := b.span(seg, pos, n-read)
		src, err := seg.SliceRO(addr, chunk)
		if err != nil {
			return read, err
		}
		copy(dst[read:read+chunk], src)
		pos += uint32(chunk)
		read += chunk
	}
	return read, nil
}

// consume drops n bytes from the front (ACK advancing snd.una).
func (b *sockBuf) consume(n int) error {
	if n < 0 || n > b.Len() {
		return fmt.Errorf("fstack: consume %d of %d buffered", n, b.Len())
	}
	b.r += uint32(n)
	return nil
}

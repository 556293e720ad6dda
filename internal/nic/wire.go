package nic

import "math"

// PropagationDelayNS is the cable's one-way latency. A metre of copper
// plus PHY latency is well under a microsecond; 500 ns is representative.
const PropagationDelayNS = 500

// RxFifoBytes is the per-port receive packet buffer. The 82576 has a
// 64 KiB RX packet buffer per port; arrivals beyond it are tail-dropped
// and counted in MPC, which is what gives TCP its congestion signal when
// the PCI bus (not the line) is the bottleneck.
const RxFifoBytes = 64 * 1024

// frame is a packet in flight: the bytes, the virtual instant the last
// bit arrives at the receiver, and the transport checksum its sender
// left pending (zero: none).
type frame struct {
	data    []byte
	readyAt int64
	sum     PendingSum
}

// rxFifo is a port's receive packet buffer: a strictly first-in-first-out
// queue, head-indexed (frames[head:] are queued, oldest first) so a pop
// is O(1) however deep a line-rate burst has filled it.
type rxFifo struct {
	frames []frame
	head   int
	bytes  int
	limit  int
	missed uint64
	arena  *FrameArena // where tail-dropped frames return; nil = default
}

// push stores an arriving frame, tail-dropping when the buffer is full.
// push and pop move a frame field by field: a frame is five words, one
// more than the compiler keeps a struct value in registers for, and a
// whole-struct copy through the stack stalls on store forwarding.
func (f *rxFifo) push(data []byte, readyAt int64, sum PendingSum) {
	if f.bytes+len(data) > f.limit {
		f.missed++
		arena := f.arena
		if arena == nil {
			arena = defaultArena
		}
		arena.Free(data)
		return
	}
	f.frames = append(f.frames, frame{})
	e := &f.frames[len(f.frames)-1]
	e.data, e.readyAt, e.sum = data, readyAt, sum
	f.bytes += len(data)
}

// headAt is the head frame's readyAt (math.MaxInt64 when empty). pop only
// ever looks at the head, so this IS the instant the queue next has
// something to harvest, even if a later frame is due first.
func (f *rxFifo) headAt() int64 {
	if f.head == len(f.frames) {
		return math.MaxInt64
	}
	return f.frames[f.head].readyAt
}

// pop removes the next fully arrived frame, if any.
func (f *rxFifo) pop(now int64) (data []byte, readyAt int64, sum PendingSum, ok bool) {
	if f.headAt() > now {
		return nil, 0, PendingSum{}, false
	}
	e := &f.frames[f.head]
	data, readyAt, sum = e.data, e.readyAt, e.sum
	f.head++
	live := len(f.frames) - f.head
	if f.head >= live {
		// The popped prefix has outgrown the live frames (or the queue
		// just drained): slide them down, so the array is reused and a
		// queue that never drains stays bounded. A slide moves no more
		// frames than were popped since the last one: O(1) amortized.
		copy(f.frames, f.frames[f.head:])
		clear(f.frames[live:])
		f.frames, f.head = f.frames[:live], 0
	}
	f.bytes -= len(data)
	return data, readyAt, sum, true
}

// Conduit is the medium a port transmits into. A *Wire is the direct
// back-to-back cable; internal/netem's Link interposes an impairment
// pipeline between the same two ports. The port calls Carry with the
// instant the last bit leaves its serializer (propagation already
// added) and the checksum it left pending, and calls Pump from every
// device step so a conduit that holds frames (delay lines, rate
// limiters) can release the ones now due. A conduit hands a frame on
// with its PendingSum (Port.DeliverPending), or settles it first
// (PendingSum.Settle) if it edits the bytes or delivers them to
// anything but a port.
//
// Ownership: `data` passes to the receiving side on Carry — the
// consumer (the far port's RX path, or the conduit itself when it
// drops the frame) returns it to the frame arena via FreeFrame, so a
// caller must not retain the slice afterward. Beware in particular of
// hand-built full-MTU (1514-byte-cap) buffers: FreeFrame recognizes
// arena frames by that capacity and would recycle them.
type Conduit interface {
	// Carry carries one frame away from endpoint `from` (0 or 1).
	Carry(from int, data []byte, readyAt int64, sum PendingSum)
	// Pump delivers any held frames that are due at virtual time now.
	Pump(now int64)
	// NextDeadline reports the earliest instant Pump has something to
	// release toward endpoint `to` — the port that will harvest it, so
	// only that port's loops wake for it — or math.MaxInt64 when nothing
	// is held for that end. Part of the interface so a frame-holding
	// conduit that forgets it fails to compile instead of silently
	// reading as quiescent to the event-driven clock.
	NextDeadline(to int, now int64) int64
}

// Wire is a full-duplex point-to-point Ethernet cable: frames sent by
// one port land in the other port's RX FIFO after the propagation delay
// (already folded into readyAt by the sender). It holds nothing, so its
// Pump is a no-op.
type Wire struct {
	ends [2]*Port
}

// Connect wires two ports back to back and raises link-up on both.
func Connect(a, b *Port) *Wire {
	w := &Wire{ends: [2]*Port{a, b}}
	a.Attach(w, 0)
	b.Attach(w, 1)
	return w
}

// Carry forwards a frame from endpoint `from` to the peer, whose RSS
// classifier picks the destination RX FIFO.
func (w *Wire) Carry(from int, data []byte, readyAt int64, sum PendingSum) {
	w.ends[1-from].DeliverPending(data, readyAt, sum)
}

// Pump implements Conduit; a plain cable never holds frames.
func (w *Wire) Pump(int64) {}

// NextDeadline implements Conduit; a plain cable holds nothing.
func (w *Wire) NextDeadline(int, int64) int64 { return math.MaxInt64 }

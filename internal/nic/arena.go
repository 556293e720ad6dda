package nic

import "slices"

// The frame arena recycles the per-frame byte buffers that carry
// Ethernet frames between a port's TX path and the far port's RX FIFO
// (directly over a Wire, or held in a netem delay line in between).
// Before the arena every transmitted frame cost one make([]byte) — the
// dominant allocation site of the whole simulator once the poll-loop
// scratch was fixed — and the buffers died as soon as the receiving
// port DMAed them into its descriptor ring.
//
// Ownership contract: a frame handed to Conduit.Carry or
// Port.DeliverPending belongs to the receiving side. Whoever
// consumes it (the RX path after copying it into descriptor memory, an
// impairment pipeline that drops it) returns it to the arena it came
// from; nobody may retain the slice afterward. Code that needs the
// bytes past that point (taps, traces) must copy.
//
// Locality: frames never cross testbeds — a frame allocated by a bed's
// TX path is freed by the same bed's RX path or links — so each
// testbed.Bed owns a private FrameArena shared by its local machine,
// its peers and its links, and steps it from the bed's one goroutine
// (DESIGN.md §12): an arena is a plain free list. The package-level
// AllocFrame/FreeFrame keep their signatures over a process-wide
// default arena for hand-wired tests and single-topology tools.

// frameChunk is how many fresh frames one refill of an empty arena
// allocates (the slabLen rule of fstack's arenas).
const frameChunk = 64

// chunkFrame is one frame of a refill chunk, padded to the 1536-byte
// size class a lone [maxFrame]byte occupies: every frame then starts
// cache-line aligned, as a lone one does, where packed 1514-byte frames
// would start 2-byte aligned and slow every whole-frame copy.
type chunkFrame struct {
	b [maxFrame]byte
	_ [1536 - maxFrame]byte
}

// FrameArena is one pool of wire-frame buffers, recycled last in, first
// out. The zero value is an empty arena.
type FrameArena struct {
	// free holds *[maxFrame]byte so Alloc/Free move a single pointer.
	free []*[maxFrame]byte
}

// NewFrameArena returns an empty arena (buffers are allocated on
// demand, frameChunk at a time, and recycled thereafter).
func NewFrameArena() *FrameArena { return &FrameArena{} }

// Alloc returns an n-byte frame buffer from the arena. Buffers always
// carry cap == maxFrame, which is how Free recognizes arena frames.
func (a *FrameArena) Alloc(n int) []byte {
	if n > maxFrame {
		// Oversized (never the case for port traffic, which enforces
		// the MTU): fall back to the allocator; Free will ignore it.
		return make([]byte, n)
	}
	k := len(a.free) - 1
	if k < 0 {
		// Refill a chunk at a time: one allocation per frameChunk fresh
		// frames, the first returned and the rest pushed on the list
		// (sized for them on the first refill).
		chunk := new([frameChunk]chunkFrame)
		a.free = slices.Grow(a.free, frameChunk-1)
		for i := frameChunk - 1; i > 0; i-- {
			a.free = append(a.free, &chunk[i].b)
		}
		return chunk[0].b[:n]
	}
	b := a.free[k]
	a.free[k] = nil
	a.free = a.free[:k]
	return b[:n]
}

// Free returns a frame buffer to the arena. Foreign slices (tests
// hand-deliver their own buffers) are recognized by capacity and left
// to the garbage collector.
func (a *FrameArena) Free(b []byte) {
	if cap(b) != maxFrame {
		return
	}
	a.free = append(a.free, (*[maxFrame]byte)(b[:maxFrame]))
}

// defaultArena backs the package-level AllocFrame/FreeFrame: the arena
// of every port not given a bed-local one.
var defaultArena = NewFrameArena()

// AllocFrame returns an n-byte frame buffer from the default arena.
func AllocFrame(n int) []byte { return defaultArena.Alloc(n) }

// FreeFrame returns a frame buffer to the default arena.
func FreeFrame(b []byte) { defaultArena.Free(b) }

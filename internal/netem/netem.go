package netem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/hostos"
	"repro/internal/nic"
	"repro/internal/obs"
)

// wireOverheadBytes mirrors the per-frame on-the-wire overhead the nic
// serializers charge (preamble+SFD, FCS, inter-frame gap), so a Link's
// rate limiter and a port's line rate agree about what "100 Mbit/s"
// means.
const wireOverheadBytes = 24

// Config describes one link's impairments. The zero value is a
// pristine link: bit-transparent pass-through with unchanged timing.
// All impairments apply independently per direction, each fed by its
// own PRNG stream derived from Seed, so runs are reproducible and the
// two directions never share randomness.
type Config struct {
	// Seed drives every random impairment. Two links with equal seeds
	// and configs impair identically.
	Seed int64

	// LossRate is the i.i.d. per-frame loss probability [0, 1).
	LossRate float64

	// Gilbert–Elliott burst loss: a two-state (good/bad) Markov chain,
	// GEBadProb > 0 enables it. The chain is time-homogeneous: it
	// steps once per wire-slot (one full-size frame time at RateBps)
	// of elapsed virtual time, NOT once per frame, so a sparse flow —
	// a lone retransmission, a trickle of ACKs — sees the same outage
	// durations as a saturating one instead of being starved by a
	// per-packet chain that only advances when it has traffic to eat.
	// The stationary loss rate is GEBadProb/(GEBadProb+GERecoverProb)
	// * GELossBad (the good state loses nothing), with mean outage
	// length 1/GERecoverProb slots.
	GEBadProb     float64 // P(good -> bad) per slot
	GERecoverProb float64 // P(bad -> good) per slot
	GELossBad     float64 // loss probability in the bad state (0 means 1)
	// GESlotNS overrides the chain's time slot; 0 derives it from
	// RateBps (one 1538-byte wire frame), or 100 µs on an unshaped
	// link.
	GESlotNS int64

	// RateBps, when positive, serializes frames through a bottleneck of
	// this many bits per second — the narrow WAN hop. QueueBytes bounds
	// the bottleneck's queue (0 = a generous 256 KiB); arrivals beyond
	// it are tail-dropped.
	RateBps    float64
	QueueBytes int

	// DelayNS is the fixed one-way propagation delay added to every
	// frame; JitterNS adds a uniform [0, JitterNS] extra per frame.
	// Jitter large enough to cross frame spacings reorders deliveries,
	// exactly as it does on real paths.
	DelayNS  int64
	JitterNS int64

	// ReorderProb holds back that fraction of frames by ReorderExtraNS
	// (default one DelayNS when zero), the classic netem reorder knob.
	ReorderProb    float64
	ReorderExtraNS int64
}

// GEFromStationary derives Gilbert–Elliott chain parameters from the
// two numbers experimenters actually think in: the stationary loss
// rate and the mean fade (outage) length in wire-slots. The bad state
// loses everything (GELossBad defaults to 1), so stationary loss =
// bad-state occupancy = GEBadProb/(GEBadProb+GERecoverProb).
func GEFromStationary(loss, meanFadeSlots float64) (badProb, recoverProb float64) {
	if loss <= 0 || loss >= 1 || meanFadeSlots <= 0 {
		return 0, 0
	}
	recoverProb = 1 / meanFadeSlots
	badProb = recoverProb * loss / (1 - loss)
	return badProb, recoverProb
}

// pristine reports whether the config impairs nothing.
func (c Config) pristine() bool {
	return c.LossRate == 0 && c.GEBadProb == 0 && c.RateBps == 0 &&
		c.DelayNS == 0 && c.JitterNS == 0 && c.ReorderProb == 0
}

// defaultQueueBytes bounds the bottleneck queue when the caller gave
// none: a generous WAN-router buffer.
const defaultQueueBytes = 256 * 1024

// DirStats counts one direction's fate per frame.
type DirStats struct {
	Sent           uint64 // frames offered to the link
	Delivered      uint64 // frames handed to the far port
	LostRandom     uint64 // i.i.d. loss
	LostBurst      uint64 // Gilbert–Elliott loss
	DroppedQueue   uint64 // bottleneck queue overflow (tail drop)
	DroppedCarrier uint64 // frames offered while the carrier was down
	Reordered      uint64 // frames held back by the reorder knob
}

// Lost sums every frame the link destroyed.
func (s DirStats) Lost() uint64 {
	return s.LostRandom + s.LostBurst + s.DroppedQueue + s.DroppedCarrier
}

// String summarizes the direction. The carrier term only appears when
// flaps actually dropped frames, so flap-free reports are unchanged.
func (s DirStats) String() string {
	out := fmt.Sprintf("sent %d, delivered %d, lost %d (iid %d, burst %d, queue %d), reordered %d",
		s.Sent, s.Delivered, s.Lost(), s.LostRandom, s.LostBurst, s.DroppedQueue, s.Reordered)
	if s.DroppedCarrier > 0 {
		out += fmt.Sprintf(", carrier-dropped %d", s.DroppedCarrier)
	}
	return out
}

// Endpoint receives the frames a Link delivers. *nic.Port satisfies it.
type Endpoint interface {
	DeliverFrame(data []byte, readyAt int64)
}

// heldFrame is one frame in the link's delay line.
type heldFrame struct {
	data      []byte
	deliverAt int64
	seq       uint64 // tie-break: equal instants deliver in send order
}

// before is the delay line's order, (deliverAt, seq): total, since seq
// is unique per direction, so any correct heap pops the same sequence.
func (f heldFrame) before(g heldFrame) bool {
	if f.deliverAt != g.deliverAt {
		return f.deliverAt < g.deliverAt
	}
	return f.seq < g.seq
}

// frameHeap is a binary min-heap of held frames in `before` order —
// typed, because container/heap's `any` elements boxed every heldFrame
// on Push and again on Pop: two allocations per frame.
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
	s[0], s[n] = s[n], heldFrame{} // and drop the data reference
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

// dirState is one direction's impairment pipeline.
type dirState struct {
	rng      *rand.Rand
	geBad    bool
	geAt     int64 // virtual time the GE chain has been stepped to
	nextFree int64 // bottleneck serializer: time its queue drains
	held     frameHeap
	seq      uint64
	stats    DirStats
	// Carrier flap schedule: carr holds the remaining toggle instants
	// (sorted ascending; each consumes one flip of carrUp). The carrier
	// starts up; nil carr means no schedule and zero cost, so
	// SetCarrierSchedule must be called before traffic.
	carr   []int64
	carrUp bool
}

// Link is a composable impairment pipeline between two endpoints. It
// satisfies nic.Conduit, so it slots in wherever a nic.Wire would. The
// two directions carry independent configurations (NewAsym), so slow
// ACK channels and asymmetric loss are first-class; the symmetric
// constructors simply apply one config to both.
type Link struct {
	clk  hostos.Clock
	cfg  [2]Config // per direction: 0 = a-to-b, 1 = b-to-a
	ends [2]Endpoint
	dirs [2]dirState

	// tr is the flight recorder (nil = off); direction d's events carry
	// src trSrc+d. Set before traffic via SetTrace; on the datapath the
	// nil check is the whole disabled-cost.
	tr    *obs.Trace
	trSrc uint16

	// arena is where dropped frames return (the sender's frame arena,
	// taken from the port at Connect time); nil falls back to the
	// package default, for links built over bare Endpoints.
	arena *nic.FrameArena
}

// freeFrame returns a dropped frame's buffer to the link's arena.
func (l *Link) freeFrame(data []byte) {
	if l.arena != nil {
		l.arena.Free(data)
		return
	}
	nic.FreeFrame(data)
}

// SetTrace installs the link's flight recorder (nil disables). Events
// from direction d (0 = a-to-b) are tagged src+d. Install before
// driving traffic.
func (l *Link) SetTrace(tr *obs.Trace, src uint16) {
	l.tr, l.trSrc = tr, src
}

// Depth reports one direction's occupancy for metrics gauges: frames
// held in the delay line and the bottleneck backlog in ns (how far
// ahead of now the serializer is booked).
func (l *Link) Depth(dir int, now int64) (frames int, backlogNS int64) {
	d := &l.dirs[dir]
	frames = len(d.held)
	if d.nextFree > now {
		backlogNS = d.nextFree - now
	}
	return frames, backlogNS
}

// fillDefaults resolves a direction config's derived knobs.
func fillDefaults(cfg Config) Config {
	if cfg.GEBadProb > 0 && cfg.GELossBad == 0 {
		cfg.GELossBad = 1
	}
	if cfg.GEBadProb > 0 && cfg.GESlotNS == 0 {
		if cfg.RateBps > 0 {
			cfg.GESlotNS = int64((1514 + wireOverheadBytes) * 8e9 / cfg.RateBps)
		} else {
			cfg.GESlotNS = 100_000
		}
	}
	if cfg.RateBps > 0 && cfg.QueueBytes <= 0 {
		cfg.QueueBytes = defaultQueueBytes
	}
	if cfg.ReorderProb > 0 && cfg.ReorderExtraNS == 0 {
		cfg.ReorderExtraNS = cfg.DelayNS
	}
	return cfg
}

// New builds a symmetric link between two endpoints without attaching
// anything; ConnectAsym is the entry point for nic ports. Direction d
// carries frames from ends[d] to ends[1-d].
func New(clk hostos.Clock, a, b Endpoint, cfg Config) *Link {
	return NewAsym(clk, a, b, cfg, cfg)
}

// NewAsym builds a link whose directions impair independently: ab
// shapes frames from a to b, ba shapes frames from b to a. Each
// direction draws from its own seed-derived PRNG stream (as the
// symmetric link always has), so an impaired reverse path never
// perturbs the forward path's randomness.
func NewAsym(clk hostos.Clock, a, b Endpoint, ab, ba Config) *Link {
	l := &Link{clk: clk, cfg: [2]Config{fillDefaults(ab), fillDefaults(ba)}, ends: [2]Endpoint{a, b}}
	for d := range l.dirs {
		// Distinct, seed-derived streams per direction.
		l.dirs[d].rng = rand.New(rand.NewSource(l.cfg[d].Seed ^ (int64(d+1) * 0x6C62272E07BB0141)))
	}
	return l
}

// ConnectAsym interposes a link between two NIC ports (where
// nic.Connect would put a plain wire) and raises link-up on both; ab
// impairs frames leaving port a toward b, ba the reverse path.
func ConnectAsym(clk hostos.Clock, a, b *nic.Port, ab, ba Config) *Link {
	l := NewAsym(clk, a, b, ab, ba)
	l.arena = a.Arena()
	a.Attach(l, 0)
	b.Attach(l, 1)
	return l
}

// Config returns the a-to-b direction's effective configuration
// (defaults filled) — the whole link's, when built symmetrically.
func (l *Link) Config() Config { return l.cfg[0] }

// DirConfig returns one direction's effective configuration
// (0 = a-to-b, 1 = b-to-a).
func (l *Link) DirConfig(dir int) Config { return l.cfg[dir] }

// Stats snapshots one direction's counters (0 = a-to-b, 1 = b-to-a).
func (l *Link) Stats(dir int) DirStats { return l.dirs[dir].stats }

// SetCarrierSchedule installs a deterministic carrier flap schedule on
// one direction: toggles are the virtual-time instants (ns, ascending)
// at which the carrier flips, starting from up. A frame offered while
// the carrier is down is dropped at enqueue (DroppedCarrier), distinct
// from the loss models; frames already in the delay line still
// deliver. Call before driving traffic, like SetTrace.
func (l *Link) SetCarrierSchedule(dir int, toggles []int64) {
	d := &l.dirs[dir]
	sched := append([]int64(nil), toggles...)
	sort.Slice(sched, func(i, j int) bool { return sched[i] < sched[j] })
	d.carr = sched
	d.carrUp = true
}

// Carrier reports one direction's carrier state after advancing its
// flap schedule to now.
func (l *Link) Carrier(dir int, now int64) bool {
	d := &l.dirs[dir]
	l.advanceCarrier(d, dir, now)
	if d.carr == nil {
		return true
	}
	return d.carrUp
}

// advanceCarrier consumes every toggle due at or before t, flipping the
// carrier and tracing each edge at its scheduled instant.
func (l *Link) advanceCarrier(d *dirState, dir int, t int64) {
	for len(d.carr) > 0 && d.carr[0] <= t {
		at := d.carr[0]
		d.carr = d.carr[1:]
		d.carrUp = !d.carrUp
		if l.tr != nil {
			up := int64(0)
			if d.carrUp {
				up = 1
			}
			l.tr.Record(at, obs.EvLinkCarrier, l.trSrc+uint16(dir), up, 0, 0)
		}
	}
}

// Send implements nic.Conduit: impair one frame leaving endpoint
// `from`, and schedule (or drop) its delivery to the peer.
func (l *Link) Send(from int, data []byte, readyAt int64) {
	dst := l.ends[1-from]
	d := &l.dirs[from]
	cfg := l.cfg[from]
	// Carrier flaps apply before every other impairment — a frame
	// offered to a dead carrier never reaches the loss models or the
	// bottleneck. The nil check keeps flap-free links at zero cost.
	if d.carr != nil {
		l.advanceCarrier(d, from, readyAt)
		if !d.carrUp {
			d.stats.Sent++
			d.stats.DroppedCarrier++
			if l.tr != nil {
				l.tr.Record(readyAt, obs.EvNetemDrop, l.trSrc+uint16(from), int64(len(data)), obs.DropCarrier, 0)
			}
			l.freeFrame(data)
			return
		}
	}
	if cfg.pristine() {
		// Bit-transparent: same bytes, same instant, same order, and no
		// PRNG draws, so a pristine link is indistinguishable from a
		// plain wire.
		d.stats.Sent++
		d.stats.Delivered++
		dst.DeliverFrame(data, readyAt)
		return
	}

	now := l.clk.Now()
	d.stats.Sent++

	// Loss first: a frame destroyed on the wire never occupies the
	// bottleneck queue.
	if cfg.GEBadProb > 0 {
		d.stepGE(cfg, readyAt)
		if d.geBad && d.rng.Float64() < cfg.GELossBad {
			d.stats.LostBurst++
			if l.tr != nil {
				l.tr.Record(now, obs.EvNetemDrop, l.trSrc+uint16(from), int64(len(data)), obs.DropBurst, 0)
			}
			l.freeFrame(data)
			return
		}
	}
	if cfg.LossRate > 0 && d.rng.Float64() < cfg.LossRate {
		d.stats.LostRandom++
		if l.tr != nil {
			l.tr.Record(now, obs.EvNetemDrop, l.trSrc+uint16(from), int64(len(data)), obs.DropIID, 0)
		}
		l.freeFrame(data)
		return
	}

	// Bottleneck serializer with a bounded queue.
	at := readyAt
	if cfg.RateBps > 0 {
		if d.nextFree < at {
			d.nextFree = at
		}
		backlogBytes := int(float64(d.nextFree-at) * cfg.RateBps / 8e9)
		if backlogBytes+len(data) > cfg.QueueBytes { // tail drop
			d.stats.DroppedQueue++
			if l.tr != nil {
				l.tr.Record(now, obs.EvNetemDrop, l.trSrc+uint16(from), int64(len(data)), obs.DropQueue, 0)
			}
			l.freeFrame(data)
			return
		}
		d.nextFree += int64(float64(len(data)+wireOverheadBytes) * 8e9 / cfg.RateBps)
		at = d.nextFree
	}

	// Delay, jitter, reordering.
	at += cfg.DelayNS
	if cfg.JitterNS > 0 {
		at += d.rng.Int63n(cfg.JitterNS + 1)
	}
	if cfg.ReorderProb > 0 && d.rng.Float64() < cfg.ReorderProb {
		at += cfg.ReorderExtraNS
		d.stats.Reordered++
	}

	d.held.push(heldFrame{data: data, deliverAt: at, seq: d.seq})
	d.seq++
	if l.tr != nil {
		l.tr.Record(now, obs.EvNetemEnqueue, l.trSrc+uint16(from), int64(len(data)), at, int64(len(d.held)))
	}
	d.release(dst, now)
}

// Pump implements nic.Conduit: release every held frame that is due.
// Ports call it from each device step, so held frames drain even when
// nothing new is sent. Most pumps are therefore idle: a direction whose
// wakeAt lies beyond now has no frame to release and no carrier edge to
// take.
func (l *Link) Pump(now int64) {
	for dir := range l.dirs {
		d := &l.dirs[dir]
		if d.wakeAt() > now {
			continue
		}
		l.advanceCarrier(d, dir, now)
		d.release(l.ends[1-dir], now)
	}
}

// NextDeadline reports the earliest instant Pump has work for endpoint
// `to`: the wakeAt of the direction that delivers there — its delay
// line's head, or its next carrier edge, so the leaping driver visits
// (and traces) every toggle instant even on an idle link. The port at
// that end folds this into its own deadline; the other end's loops sleep
// through it.
func (l *Link) NextDeadline(to int, _ int64) int64 {
	return l.dirs[1-to].wakeAt()
}

// stepGE advances the Gilbert–Elliott chain to time `at`, one
// transition per elapsed wire-slot. The chain's clock (geAt) advances
// in whole slots only, so several frames within one slot all sample
// the same state and a dense flow does not run the chain any faster
// than a sparse one. Past a few thousand idle slots the chain is at
// stationarity, so it is sampled there directly instead of walked.
func (d *dirState) stepGE(cfg Config, at int64) {
	if d.geAt == 0 {
		// First frame seeds the chain clock and draws the initial state
		// from the stationary distribution.
		d.geAt = at
		d.geBad = d.rng.Float64() < cfg.GEBadProb/(cfg.GEBadProb+cfg.GERecoverProb)
		return
	}
	if at <= d.geAt {
		return
	}
	steps := (at - d.geAt) / cfg.GESlotNS
	const stationaryAfter = 4096
	if steps > stationaryAfter {
		d.geAt = at
		d.geBad = d.rng.Float64() < cfg.GEBadProb/(cfg.GEBadProb+cfg.GERecoverProb)
		return
	}
	d.geAt += steps * cfg.GESlotNS
	for i := int64(0); i < steps; i++ {
		if d.geBad {
			if d.rng.Float64() < cfg.GERecoverProb {
				d.geBad = false
			}
		} else if d.rng.Float64() < cfg.GEBadProb {
			d.geBad = true
		}
	}
}

// wakeAt is the earliest instant Pump has work here: the delay line's
// head or the next carrier toggle, math.MaxInt64 for neither.
func (d *dirState) wakeAt() int64 {
	at := int64(math.MaxInt64)
	if len(d.held) > 0 {
		at = d.held[0].deliverAt
	}
	if len(d.carr) > 0 && d.carr[0] < at {
		at = d.carr[0]
	}
	return at
}

// release hands dst every held frame due at now, in delivery order.
func (d *dirState) release(dst Endpoint, now int64) {
	for len(d.held) > 0 && d.held[0].deliverAt <= now {
		f := d.held.pop()
		d.stats.Delivered++
		dst.DeliverFrame(f.data, f.deliverAt)
	}
}

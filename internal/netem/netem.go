package netem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/hostos"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
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

// receiver is what a link delivers into: a *nic.Port takes a frame with
// the checksum its sender left pending; any other Endpoint is wrapped in
// settled, which hands it the final bytes.
type receiver interface {
	DeliverPending(data []byte, readyAt int64, sum nic.PendingSum)
}

// settled delivers to an Endpoint that is not a port: the bytes are
// made final first, since it reads them as the wire carries them.
type settled struct{ Endpoint }

func (e settled) DeliverPending(data []byte, readyAt int64, sum nic.PendingSum) {
	sum.Settle(data)
	e.DeliverFrame(data, readyAt)
}

// heldFrame is one frame in the link's delay line.
type heldFrame struct {
	data      []byte
	deliverAt int64
	seq       uint64 // tie-break: equal instants deliver in send order
	sum       nic.PendingSum
}

// before is the delay line's order, (deliverAt, seq): total, since seq
// is unique per direction.
func (f heldFrame) before(g heldFrame) bool {
	if f.deliverAt != g.deliverAt {
		return f.deliverAt < g.deliverAt
	}
	return f.seq < g.seq
}

// delayLine holds one direction's frames in flight in `before` order: a
// ring (a power-of-two array, head index and count) whose push appends
// at the tail and moves the frame back past every later-due one. A push
// carries the largest seq yet, so it moves only past frames due strictly
// later: none on a link whose delivery instants never decrease (no
// jitter, no reordering), where push and pop are both O(1).
type delayLine struct {
	buf  []heldFrame
	head int
	n    int
}

// len reports the frames held.
func (r *delayLine) len() int { return r.n }

// first is the earliest frame; the line must be non-empty.
func (r *delayLine) first() *heldFrame { return &r.buf[r.head] }

// push inserts f in order, doubling the ring when it is full.
func (r *delayLine) push(f heldFrame) {
	if r.n == len(r.buf) {
		grown := make([]heldFrame, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	mask := len(r.buf) - 1
	i := r.n
	for ; i > 0; i-- {
		prev := &r.buf[(r.head+i-1)&mask]
		if !f.before(*prev) {
			break
		}
		r.buf[(r.head+i)&mask] = *prev
	}
	r.buf[(r.head+i)&mask] = f
	r.n++
}

// pop removes and returns the earliest frame; the line must be
// non-empty.
func (r *delayLine) pop() heldFrame {
	f := r.buf[r.head]
	r.buf[r.head] = heldFrame{} // drop the data reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return f
}

// dirState is one direction's impairment pipeline.
type dirState struct {
	rng   *rand.Rand
	geBad bool
	geAt  int64    // virtual time the GE chain has been stepped to
	queue sim.Core // the bottleneck: busy until its queue drains
	held  delayLine
	seq   uint64
	stats DirStats
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
	ends [2]receiver
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
// ahead of now the bottleneck is booked).
func (l *Link) Depth(dir int, now int64) (frames int, backlogNS int64) {
	d := &l.dirs[dir]
	return d.held.len(), d.queue.At(now) - now
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
	l := &Link{clk: clk, cfg: [2]Config{fillDefaults(ab), fillDefaults(ba)}}
	for i, e := range [2]Endpoint{a, b} {
		if r, ok := e.(receiver); ok {
			l.ends[i] = r
		} else {
			l.ends[i] = settled{e}
		}
	}
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

// Send offers a frame whose bytes are final (one built by hand) to the
// link: Carry with no checksum pending.
func (l *Link) Send(from int, data []byte, readyAt int64) {
	l.Carry(from, data, readyAt, nic.PendingSum{})
}

// Carry implements nic.Conduit: impair one frame leaving endpoint
// `from`, and schedule (or drop) its delivery to the peer with the
// checksum its sender left pending. No impairment edits bytes, so the
// sum travels with the frame untouched.
func (l *Link) Carry(from int, data []byte, readyAt int64, sum nic.PendingSum) {
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
		dst.DeliverPending(data, readyAt, sum)
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

	// Bottleneck with a bounded queue.
	at := readyAt
	if cfg.RateBps > 0 {
		backlogBytes := int(float64(d.queue.At(at)-at) * cfg.RateBps / 8e9)
		if backlogBytes+len(data) > cfg.QueueBytes { // tail drop
			d.stats.DroppedQueue++
			if l.tr != nil {
				l.tr.Record(now, obs.EvNetemDrop, l.trSrc+uint16(from), int64(len(data)), obs.DropQueue, 0)
			}
			l.freeFrame(data)
			return
		}
		// Its own rounding, not sim.BytesNS: the two differ by a
		// nanosecond on some frames, and the WAN results are priced in this.
		at = d.queue.Book(at, int64(float64(len(data)+wireOverheadBytes)*8e9/cfg.RateBps))
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

	d.held.push(heldFrame{data: data, deliverAt: at, seq: d.seq, sum: sum})
	d.seq++
	if l.tr != nil {
		l.tr.Record(now, obs.EvNetemEnqueue, l.trSrc+uint16(from), int64(len(data)), at, int64(d.held.len()))
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
	if d.held.len() > 0 {
		at = d.held.first().deliverAt
	}
	if len(d.carr) > 0 && d.carr[0] < at {
		at = d.carr[0]
	}
	return at
}

// release hands dst every held frame due at now, in delivery order.
func (d *dirState) release(dst receiver, now int64) {
	for d.held.len() > 0 && d.held.first().deliverAt <= now {
		f := d.held.pop()
		d.stats.Delivered++
		dst.DeliverPending(f.data, f.deliverAt, f.sum)
	}
}

package testbed

import (
	"repro/internal/dpdk"
	"repro/internal/fstack"
)

// ShardStepper runs a bed's shard loops on several host goroutines
// between consecutive virtual instants, producing the bit-identical
// event order of the sequential driver. Virtual time is frozen while
// the loops run, so the only ordering that matters is the order shared
// device state is touched in — and the stepper makes that order
// explicit with a three-phase schedule per instant:
//
//	A. (sequential) one device step: leftover TX descriptors drain onto
//	   the line in queue-index order, the conduit pumps due frames, and
//	   the RX FIFOs fill the descriptor rings.
//	B. (parallel) every shard loop runs once against the no-step burst
//	   variants: harvest completed RX descriptors, run the stack,
//	   program TX descriptors. Shards touch only their own queue pair's
//	   software state; the structures they share (mempool, ARP cache,
//	   port registers, tag memory) carry their own locks.
//	C. (sequential) one device step: the TX frames phase B programmed
//	   drain in queue-index order — the same order sequential loops
//	   submit in, and serializer admission within a frozen instant is
//	   monotone, so the line books the identical schedule.
//
// Peer loops (single-stack, self-stepping) then run sequentially, as
// they always have. Everything a transmitted frame could influence is
// strictly in the future (line booking plus propagation delay), so no
// shard can observe another's same-instant output in either schedule.
//
// The schedule runs over the driver's due set (DESIGN.md §8): only the
// loops due at the instant are stepped — the same loops the sequential
// driver steps. An instant at which no shard is due skips all three
// phases, as no sequential shard poll would have stepped the device
// either. Shards that are not due count as finished from the start, so
// a stalled shard waits only on lower shards that are running.
//
// One piece of sequential behavior cannot wait for a phase boundary:
// descriptor-ring backpressure. The sequential driver steps the device
// inside every burst call, so a stack saturating its TX ring sees the
// ring drain continuously and only stalls once the ring AND the line's
// admission window are both full. Phase B's no-step bursts would stall
// at the bare ring size instead — earlier than sequential — and the
// different stall point changes segmentation and then everything
// downstream. So a shard whose TX ring fills mid-instant blocks in a
// stall handler, and the stepper services it by draining TX queues
// 0..q (TX only — no conduit pump, no RX fill) once every shard below
// q has finished the instant. At that moment queues below q hold their
// final frames and queue q holds the stalled shard's, so the drain
// books the line in exactly the sequential order; if the stalled queue
// still cannot advance, the handler reports failure and the shard
// surfaces the shortfall precisely where the sequential stack would.
// A stalled shard waits only on lower-numbered shards and every worker
// steps its loops in ascending order, so the wait graph is acyclic.
type ShardStepper struct {
	sharded    *fstack.ShardedStack
	dev        *dpdk.EthDev
	loops      []*fstack.Loop // shard loops, phase B
	peers      []*fstack.Loop // remaining loops, stepped sequentially after
	kicks      []chan struct{}
	loopDone   chan int    // workers report each finished loop index
	stalls     chan int    // shards report a full TX ring mid-instant
	stallReply []chan bool // per-shard drain verdict, unblocking the shard
	quit       chan struct{}

	// due is the current instant's due set, indexed like Bed.Loops();
	// the coordinator stores it before the kicks and the workers read it
	// between their kick and their last completion report.
	due []bool

	// Coordinator-only scratch, reused across instants.
	done []bool // per-shard: finished (or not due at) the current instant
	held []int  // stalled shards waiting on lower shards to finish
}

// NewShardStepper returns a stepper over the bed's shard loops using up
// to `workers` goroutines, or nil when the bed is not eligible for
// parallel shard stepping. Eligibility is conservative — anything that
// would let one shard observe another's same-instant work falls back to
// the sequential driver:
//
//   - a sharded compartment with at least two shards, and no other
//     local compartments (their loops interleave with the shards');
//   - observability off (the trace ring orders events globally);
//   - an ideal PCI bus (a fair-share arbiter makes polling order part
//     of the machine state);
//   - no OnLoop callbacks on shard loops (they run user code the
//     schedule cannot see);
//   - every bound device offering the no-step burst surface, and the
//     TX-only drain the ring-full stall handler needs.
//
// The caller owns the returned stepper and must Close it.
func NewShardStepper(b *Bed, workers int) *ShardStepper {
	if workers <= 1 || b.Sharded == nil || b.Sharded.NumShards() < 2 {
		return nil
	}
	if len(b.Envs) != 1 || b.Obs != nil || b.Dev == nil {
		return nil
	}
	if b.Local.Card.BusLimited() || !b.Sharded.SupportsDeferredSteps() || !b.Dev.SupportsTxDrain() {
		return nil
	}
	shardLoops := b.Sharded.Loops()
	for _, l := range shardLoops {
		if l.OnLoop != nil {
			return nil
		}
	}
	all := b.Loops()
	n := len(shardLoops)
	ps := &ShardStepper{
		sharded:    b.Sharded,
		dev:        b.Dev,
		loops:      shardLoops,
		peers:      all[n:],
		loopDone:   make(chan int, n),
		stalls:     make(chan int, n),
		stallReply: make([]chan bool, n),
		quit:       make(chan struct{}),
		done:       make([]bool, n),
	}
	for i := range ps.stallReply {
		ps.stallReply[i] = make(chan bool)
	}
	// The handler blocks the stalled shard's worker until the
	// coordinator has drained (or refused to advance) its queue. It is
	// only reachable while deferred stepping is on, i.e. while RunOnce
	// is inside its coordination loop.
	b.Sharded.SetTxStallHandler(func(q int) bool {
		ps.stalls <- q
		return <-ps.stallReply[q]
	})
	if workers > n {
		workers = n
	}
	// Persistent workers, one kick channel each: an instant's fork/join
	// is two channel operations per worker instead of a goroutine spawn,
	// and worker w always steps the same loops (w, w+n, ...), keeping
	// per-shard cache state warm.
	ps.kicks = make([]chan struct{}, workers)
	for w := range ps.kicks {
		ps.kicks[w] = make(chan struct{})
		go ps.worker(w)
	}
	return ps
}

// worker steps the due loops among w, w+n, w+2n, ... on every kick,
// reporting each completion — and each loop it passed over, so that the
// coordinator's join also means no worker will read the due set again.
// Ascending order matters: a stalled shard's drain waits on every lower
// shard, so a worker visiting its loops out of order could close a
// cycle.
func (ps *ShardStepper) worker(w int) {
	for {
		select {
		case <-ps.quit:
			return
		case <-ps.kicks[w]:
			for i := w; i < len(ps.loops); i += len(ps.kicks) {
				if ps.due[i] {
					ps.loops[i].RunOnce()
				}
				ps.loopDone <- i
			}
		}
	}
}

// RunOnce advances the due loops of the bed one iteration at the
// current virtual instant: the three-phase shard schedule, then the peer
// loops. due is indexed like Bed.Loops(). It is the parallel drop-in for
// the sequential driver's "step every due loop once" inner body.
//
// Deferred device stepping is scoped to phase B alone. Anything that
// drives the sharded API outside the fork/join — the scenario app
// steppers that run after the loops, an iperf client writing from the
// driver goroutine — must step the device synchronously, exactly as
// the sequential driver does, or its frames would wait for the next
// instant's phase A and book the line one tick late. The toggles
// happen strictly before the kick sends and after the join, so the
// workers always observe deferSteps = true.
func (ps *ShardStepper) RunOnce(due []bool) {
	anyDue := false
	for i := range ps.done {
		ps.done[i] = !due[i]
		anyDue = anyDue || due[i]
	}
	if anyDue {
		ps.due = due
		ps.sharded.StepDevices() // phase A
		ps.sharded.SetDeferDeviceSteps(true)
		for _, k := range ps.kicks {
			k <- struct{}{}
		}
		// Phase B coordination: collect per-loop completions and service
		// TX ring-full stalls. A held stall becomes serviceable once
		// every lower shard is done; its worker stays blocked until
		// then, so it cannot report completion and the loop cannot exit
		// with stalls pending.
		for remaining := len(ps.loops); remaining > 0; {
			select {
			case i := <-ps.loopDone:
				ps.done[i] = true
				remaining--
			case q := <-ps.stalls:
				ps.held = append(ps.held, q)
			}
			ps.serviceStalls()
		}
		ps.sharded.SetDeferDeviceSteps(false)
		ps.sharded.StepDevices() // phase C
	}
	for i, l := range ps.peers {
		if due[len(ps.loops)+i] {
			l.RunOnce()
		}
	}
}

// serviceStalls drains every held stall whose lower shards have all
// finished the instant. At most one stall is serviceable at a time —
// two stalled shards q1 < q2 can never both qualify, since q2 would
// need q1 done and a stalled shard is not done — so the drain order,
// and with it the line-booking order, is deterministic.
func (ps *ShardStepper) serviceStalls() {
	for {
		serviced := false
		for i, q := range ps.held {
			ready := true
			for s := 0; s < q; s++ {
				if !ps.done[s] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			ps.held = append(ps.held[:i], ps.held[i+1:]...)
			ps.stallReply[q] <- ps.dev.DrainTXThrough(q)
			serviced = true
			break
		}
		if !serviced {
			return
		}
	}
}

// Close stops the workers and unhooks the stall handler.
func (ps *ShardStepper) Close() {
	ps.sharded.SetTxStallHandler(nil)
	close(ps.quit)
}

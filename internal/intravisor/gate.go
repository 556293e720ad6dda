package intravisor

import (
	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/obs"
	"repro/internal/sim"
)

// GateFunc is the target of a cross-compartment call: code that runs
// inside the owning cVM's world. args carries scalar arguments (fd,
// lengths, flags); buf carries at most one capability argument — the
// `void * __capability` buffer of the modified F-Stack API (§III-B).
type GateFunc func(caller *CVM, args hostos.Args, buf cheri.Cap) (r0 uint64, errno hostos.Errno)

// Threads names the cores of the two threads a call runs on: the caller's
// and the target's (one core if the caller's thread runs the target).
type Threads func(caller *CVM, args hostos.Args) (from, to *sim.Core)

// Gate is a sealed entry point into a cVM. Scenario 2 registers one gate
// per wrapped F-Stack API function (ff_write, ff_read, ...); application
// cVMs hold only the sealed pair, so they can reach exactly the exported
// entry points of the stack compartment and nothing else.
type Gate struct {
	iv      *Intravisor
	owner   *CVM
	pair    cheri.EntryPair
	fn      GateFunc
	threads Threads
}

// NewGate exports fn from the owner cVM as a callable gate whose calls
// run on the caller's cVM thread and the owner's.
func (iv *Intravisor) NewGate(owner *CVM, fn GateFunc) (*Gate, error) {
	return iv.NewGateOn(owner, func(c *CVM, _ hostos.Args) (*sim.Core, *sim.Core) { return &c.Core, &owner.Core }, fn)
}

// NewGateOn is NewGate for calls that run on the threads named.
func (iv *Intravisor) NewGateOn(owner *CVM, threads Threads, fn GateFunc) (*Gate, error) {
	pair, err := iv.sealPair(owner.ddc)
	if err != nil {
		return nil, err
	}
	return &Gate{iv: iv, owner: owner, pair: pair, fn: fn, threads: threads}, nil
}

// Call performs the cross-compartment invocation from caller into the
// gate's owner: validate the capability argument, check the sealed pair
// (CInvoke), run the target, and cross back. This is the jump the
// paper's Scenario 2 wrappers execute around every F-Stack API call. A
// broken pair traps the caller: EFAULT, the target never runs and no
// crossing is counted.
func (g *Gate) Call(caller *CVM, args hostos.Args, buf cheri.Cap) (uint64, hostos.Errno) {
	// The buffer capability the caller passes must be derived from the
	// caller's own authority: re-validate it against the caller's DDC
	// (CBuildCap), so a forged or stolen capability cannot cross.
	if buf.Tag() {
		checked, err := cheri.BuildCap(caller.ddc, buf)
		if err != nil {
			if f, ok := faultOf(err); ok {
				caller.Trap(f)
			}
			return 0, hostos.EFAULT
		}
		buf = checked
	}
	if err := cheri.CInvoke(g.pair); err != nil {
		if f, ok := faultOf(err); ok {
			caller.Trap(f)
		}
		return 0, hostos.EFAULT
	}
	now := g.iv.K.Clk.Now()
	from, to := g.threads(caller, args)
	free := to.At(now)
	start := max(from.At(now), free)
	r0, errno := g.fn(caller, args, buf)
	crossings := g.iv.Crossings.Add(1)
	g.owner.settle(caller, from, to, start, to.At(now)-free, errno == hostos.EAGAIN)
	if g.iv.obsTr != nil {
		g.iv.obsTr.Record(g.iv.obsNow(), obs.EvGateCrossing, uint16(caller.ID), int64(crossings), 0, 0)
	}
	return r0, errno
}

// settle books one counted crossing into o (sim's cost table) on the
// threads that ran it: begun at start, once from and to were both free —
// to being the F-Stack mutex, for the stack's gates — it did the work the
// target booked on to meanwhile, and crossed; both are busy until back.
//
// A call refused with EAGAIN moved nothing: a poll, free as an idle loop
// iteration is, or virtual time would depend on how often the driver
// steps. It leaves a mark — the caller stands refused on o and keeps
// coming back for the lock — and while another caller stands so, taking
// the lock costs the hand-off on top.
func (o *CVM) settle(caller *CVM, from, to *sim.Core, start, work int64, refused bool) {
	mark := uint64(1) << caller.ID // 0 past 64 cVMs: those never stand
	if refused {
		o.refused |= mark
		return
	}
	o.refused &^= mark
	if o.refused != 0 {
		start += sim.HandoffNS
	}
	end := start + work + sim.GateCallNS
	to.Book(end, 0)
	from.Book(end, 0)
}

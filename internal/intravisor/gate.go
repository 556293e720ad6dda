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

// Gate is a sealed entry point into a cVM. Scenario 2 registers one gate
// per wrapped F-Stack API function (ff_write, ff_read, ...); application
// cVMs hold only the sealed pair, so they can reach exactly the exported
// entry points of the stack compartment and nothing else.
type Gate struct {
	iv    *Intravisor
	owner *CVM
	pair  cheri.EntryPair
	fn    GateFunc
}

// NewGate exports fn from the owner cVM as a callable gate.
func (iv *Intravisor) NewGate(owner *CVM, fn GateFunc) (*Gate, error) {
	pair, err := iv.sealPair(owner.ddc)
	if err != nil {
		return nil, err
	}
	return &Gate{iv: iv, owner: owner, pair: pair, fn: fn}, nil
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
	free := g.owner.Core.At(now)
	r0, errno := g.fn(caller, args, buf)
	crossings := g.iv.Crossings.Add(1)
	g.owner.settle(caller, now, free, errno == hostos.EAGAIN)
	if g.iv.obsTr != nil {
		g.iv.obsTr.Record(g.iv.obsNow(), obs.EvGateCrossing, uint16(caller.ID), int64(crossings), 0, 0)
	}
	return r0, errno
}

// settle books one counted crossing into o (sim's cost table). The
// caller's thread ran o's code: it began once it and the compartment —
// free at `free` before the call; the F-Stack mutex, for the stack's
// gates — were both available, did the work the target booked on o's core
// meanwhile, and crossed; both cores are busy until it is back.
//
// A call refused with EAGAIN is a poll, free as an idle loop iteration
// is: poll-mode callers return every driver step, so a booking per
// refusal would tie virtual time to how often the driver steps. It leaves
// a mark instead — the caller stands refused on o and keeps coming back
// for the lock — and while another caller stands so, taking the lock
// costs the hand-off on top.
func (o *CVM) settle(caller *CVM, now, free int64, refused bool) {
	mark := uint64(1) << caller.ID // 0 past 64 cVMs: those never stand
	if refused {
		o.refused |= mark
		return
	}
	o.refused &^= mark
	start := max(caller.Core.At(now), free)
	if o.refused != 0 {
		start += sim.HandoffNS
	}
	end := start + (o.Core.At(now) - free) + sim.GateCallNS
	o.Core.Book(end, 0)
	caller.Core.Book(end, 0)
}

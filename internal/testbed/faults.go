package testbed

import (
	"fmt"

	"repro/internal/cheri"
	"repro/internal/faultplane"
	"repro/internal/obs"
)

// FaultSpec declares a bed's deterministic fault schedule: carrier
// flaps on peer links, NIC queue stalls and DMA-fault bursts, and
// injected capability faults that trap a chosen compartment mid-run,
// plus the supervisor's restart policy over the trapped compartments.
// The zero value keeps the fault plane completely off: nothing is
// wired, no event fires, and the bed's behavior is bit-identical to one
// built without it.
type FaultSpec struct {
	// LinkFlaps installs carrier flap schedules on peer links.
	LinkFlaps []LinkFlapSpec
	// NICFaults schedules queue stalls and DMA-fault bursts on local
	// devices.
	NICFaults []NICFaultSpec
	// CapFaults schedules injected capability faults that trap a
	// compartment (its cVM dies, its stack crashes silently).
	CapFaults []CapFaultSpec
	// Restart is the supervisor's policy over trapped compartments.
	Restart RestartSpec
}

// Enabled reports whether any fault is declared.
func (f FaultSpec) Enabled() bool {
	return len(f.LinkFlaps) > 0 || len(f.NICFaults) > 0 || len(f.CapFaults) > 0
}

// LinkFlapSpec is one direction's carrier flap schedule on a peer link.
type LinkFlapSpec struct {
	// Peer names the link (defaults resolve like PeerSpec.Name).
	Peer string
	// Dir selects the direction: 0 impairs local-to-peer, 1 the
	// reverse (the netem direction plan).
	Dir int
	// Toggles are the virtual instants at which the carrier flips,
	// starting from up.
	Toggles []int64
}

// NICFaultSpec schedules hardware faults on one local device queue.
type NICFaultSpec struct {
	// Env names the owning compartment; Dev indexes its devices.
	Env string
	Dev int
	// Queue is the queue pair to stall.
	Queue int
	// StallAt/ResumeAt bound one stall window (both zero = no stall).
	StallAt  int64
	ResumeAt int64
	// DMAFaultAt injects a budget of DMAFaults transient DMA faults at
	// that instant (zero DMAFaults = none).
	DMAFaultAt int64
	DMAFaults  int64
}

// CapFaultSpec schedules injected capability faults against one
// compartment.
type CapFaultSpec struct {
	// Env names the compartment to trap.
	Env string
	// At lists the injection instants.
	At []int64
}

// RestartSpec is the supervisor policy (zero fields take the
// faultplane defaults) plus the blast-radius switch.
type RestartSpec struct {
	BackoffNS    int64
	MaxBackoffNS int64
	MaxRetries   int
	// FateSharing models the baseline layout: the stack is one
	// monolithic process, so a capability fault scheduled against any
	// compartment takes every environment down and the supervisor
	// restarts them all. Off, a fault is contained to its compartment.
	FateSharing bool
}

// policy resolves the spec against the defaults.
func (r RestartSpec) policy() faultplane.Policy {
	p := faultplane.DefaultPolicy()
	if r.BackoffNS > 0 {
		p.BackoffNS = r.BackoffNS
	}
	if r.MaxBackoffNS > 0 {
		p.MaxBackoffNS = r.MaxBackoffNS
	}
	if r.MaxRetries > 0 {
		p.MaxRetries = r.MaxRetries
	}
	return p
}

// validateFaults checks the fault plan against the topology plan.
func (s Spec) validateFaults() error {
	f := s.Faults
	envs := map[string]CompartmentSpec{}
	for _, cs := range s.Compartments {
		envs[cs.Name] = cs
	}
	peers := map[string]bool{}
	for _, ps := range s.Peers {
		peers[peerName(ps.Port)] = ps.Link != nil
	}
	for _, lf := range f.LinkFlaps {
		linked, ok := peers[lf.Peer]
		if !ok {
			return fmt.Errorf("testbed: link flap references unknown peer %q", lf.Peer)
		}
		if !linked {
			return fmt.Errorf("testbed: link flap on peer %q, which has a plain wire (no netem link)", lf.Peer)
		}
		if lf.Dir != 0 && lf.Dir != 1 {
			return fmt.Errorf("testbed: link flap on peer %q: direction %d not in {0,1}", lf.Peer, lf.Dir)
		}
	}
	for _, nf := range f.NICFaults {
		cs, ok := envs[nf.Env]
		if !ok {
			return fmt.Errorf("testbed: NIC fault references unknown compartment %q", nf.Env)
		}
		if nf.Dev < 0 || nf.Dev >= len(cs.Ifs) {
			return fmt.Errorf("testbed: NIC fault on %q: device %d, compartment has %d", nf.Env, nf.Dev, len(cs.Ifs))
		}
		if nq := cs.Stack.queues(); nf.Queue < 0 || nf.Queue >= nq {
			return fmt.Errorf("testbed: NIC fault on %q: queue %d, device has %d", nf.Env, nf.Queue, nq)
		}
		if nf.ResumeAt < nf.StallAt {
			return fmt.Errorf("testbed: NIC fault on %q: resume %d before stall %d", nf.Env, nf.ResumeAt, nf.StallAt)
		}
		if nf.DMAFaults < 0 {
			return fmt.Errorf("testbed: NIC fault on %q: negative DMA-fault budget", nf.Env)
		}
	}
	for _, cf := range f.CapFaults {
		if _, ok := envs[cf.Env]; !ok {
			return fmt.Errorf("testbed: capability fault references unknown compartment %q", cf.Env)
		}
	}
	return nil
}

// envTarget adapts one environment to the supervisor's Target
// interface. For a cVM-hosted compartment the trap predicate is the
// cVM's own state; a Baseline process has no cVM, so the injected trap
// latches here.
type envTarget struct {
	b       *Bed
	e       *Env
	trapped bool
}

func (t *envTarget) Trapped() bool {
	if t.e.CVM != nil {
		return t.e.CVM.Trapped()
	}
	return t.trapped
}

// Restart re-creates the compartment's world: revive the cVM over its
// window, re-seal the API gates over the fresh DDC, bring the stack
// back up, then let the experiment's hook re-establish listeners and
// re-register epoll sets (what the application's main would do).
func (t *envTarget) Restart(now int64) error {
	if t.e.CVM != nil {
		if err := t.e.CVM.Restart(); err != nil {
			return err
		}
		if t.b.Gates != nil && t.b.gatesEnv == t.e {
			if err := t.b.Gates.Rebind(t.b.Local.IV, t.e); err != nil {
				return err
			}
		}
	}
	for _, stk := range t.e.Stacks() {
		stk.Restart()
	}
	t.trapped = false
	if t.b.RestartHook != nil {
		t.b.RestartHook(t.e, now)
	}
	return nil
}

// trap kills one compartment: the cVM dies on an (injected) capability
// fault and its stack crashes silently. The supervisor notices in the
// same virtual step and schedules the restart.
func (t *envTarget) trap() {
	if t.e.CVM != nil {
		t.e.CVM.Trap(&cheri.Fault{Kind: cheri.FaultBounds, Op: "injected"})
	}
	t.trapped = true
	for _, stk := range t.e.Stacks() {
		stk.Crash()
	}
}

// wireFaults builds the fault plane and supervisor over a finished
// topology. Only called when spec.Faults.Enabled().
func (b *Bed) wireFaults(spec Spec) error {
	fs := spec.Faults
	sup := faultplane.NewSupervisor(fs.Restart.policy())
	var tr *obs.Trace
	if b.Obs != nil {
		tr = b.Obs.Trace
		sup.SetTrace(tr)
	}
	targets := make(map[string]*envTarget, len(b.Envs))
	ordered := make([]*envTarget, 0, len(b.Envs))
	for i, e := range b.Envs {
		t := &envTarget{b: b, e: e}
		targets[e.Name] = t
		ordered = append(ordered, t)
		sup.Watch(t, uint16(i))
	}
	envIdx := func(name string) int64 {
		for i, e := range b.Envs {
			if e.Name == name {
				return int64(i)
			}
		}
		return -1
	}

	// Carrier flaps go straight to the links — netem replays its own
	// schedule on the frame timeline.
	for _, lf := range fs.LinkFlaps {
		for i, p := range b.Peers {
			if p.Env.Name == lf.Peer {
				b.Links[i].SetCarrierSchedule(lf.Dir, lf.Toggles)
			}
		}
	}

	var evs []faultplane.Event
	for _, nf := range fs.NICFaults {
		nf := nf
		e := b.Envs[envIdx(nf.Env)]
		dev := e.drv[nf.Dev]
		src := uint16(envIdx(nf.Env))
		if nf.ResumeAt > nf.StallAt {
			evs = append(evs,
				faultplane.Event{At: nf.StallAt, Fire: func(now int64) {
					dev.SetQueueStall(nf.Queue, true)
					tr.Record(now, obs.EvFault, src, obs.FaultNICStall, 0, int64(nf.Queue))
				}},
				faultplane.Event{At: nf.ResumeAt, Fire: func(now int64) {
					dev.SetQueueStall(nf.Queue, false)
				}})
		}
		if nf.DMAFaults > 0 {
			evs = append(evs, faultplane.Event{At: nf.DMAFaultAt, Fire: func(now int64) {
				dev.InjectDMAFaults(nf.DMAFaults)
				tr.Record(now, obs.EvFault, src, obs.FaultDMA, nf.DMAFaults, int64(nf.Queue))
			}})
		}
	}
	for _, cf := range fs.CapFaults {
		t := targets[cf.Env]
		for _, at := range cf.At {
			fire := func(now int64) { t.trap() }
			if fs.Restart.FateSharing {
				// Baseline: the whole stack process dies with it.
				fire = func(now int64) {
					for _, o := range ordered {
						o.trap()
					}
				}
			}
			evs = append(evs, faultplane.Event{At: at, Fire: fire})
		}
	}
	b.Faults = faultplane.NewPlane(evs)
	b.Super = sup
	return nil
}

// FaultStep advances the fault plane and the supervisor to now. The
// experiment driver calls it from the application phase of every
// iteration; with no FaultSpec both halves are nil and this is two
// nil checks.
func (b *Bed) FaultStep(now int64) {
	b.Faults.Step(now)
	b.Super.Step(now)
}

package testbed

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dpdk"
	"repro/internal/faultplane"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/intravisor"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/obs"
)

// Bed is a wired topology: the local machine with its environments and
// gates, plus the remote link partners and their links. Experiments
// attach applications to the loops and drive virtual time.
type Bed struct {
	Clk   hostos.Clock
	Local *Machine
	// Envs are the local network environments, one per compartment in
	// spec order.
	Envs []*Env
	// Apps are application compartments without NIC ports (API-gate
	// policy) and their gated API views.
	Apps []*GatedAPI
	// Gates is non-nil when a compartment exported its stack API.
	Gates *StackGates
	// Peers are the remote machines, in spec order.
	Peers []*Peer
	// Links holds each peer's netem link, nil where a plain wire
	// connects (parallel to Peers).
	Links []*netem.Link
	// Sharded and Dev expose the (single) sharded compartment's stack
	// and multi-queue device, when the spec has one.
	Sharded *fstack.ShardedStack
	Dev     *dpdk.EthDev
	// Obs carries the wired observability instruments; nil when the
	// spec's ObsSpec is the zero value (everything off).
	Obs *obs.Obs
	// Pcaps are the open per-peer link captures (ObsSpec.PcapDir).
	Pcaps []*LinkCapture
	// Faults and Super are the wired fault plane and compartment
	// supervisor; both nil when the spec's FaultSpec is the zero value.
	// The driver steps them via FaultStep.
	Faults *faultplane.Plane
	Super  *faultplane.Supervisor
	// RestartHook, when set, runs after the supervisor brings a crashed
	// environment's cVM, gates and stack back up — the place an
	// experiment re-establishes listeners and epoll registrations, the
	// way the restarted compartment's main() would.
	RestartHook func(e *Env, now int64)

	// loops caches the Loops() result: the event-driven driver asks
	// for it (via NextDeadline) on every iteration, and the topology
	// never changes after Build.
	loops []*fstack.Stack

	// arena is this bed's private frame-buffer pool, shared by the
	// local machine, every peer and every link — frames never cross
	// beds, so concurrent sweep cells never share one.
	arena *nic.FrameArena

	// gatesEnv is the environment Gates exports, so a restart knows
	// whose gates to re-seal.
	gatesEnv *Env
}

// Loops lists every main loop in the bed — every stack: each
// compartment's Stacks in spec order, then each peer's. The slice is
// cached; callers must not mutate it.
func (b *Bed) Loops() []*fstack.Stack {
	if b.loops != nil {
		return b.loops
	}
	var out []*fstack.Stack
	for _, e := range b.Envs {
		out = append(out, e.Stacks()...)
	}
	for _, p := range b.Peers {
		out = append(out, p.Env.Stacks()...)
	}
	b.loops = out
	return out
}

// AppCVM returns the i-th application compartment (API-gate layouts).
func (b *Bed) AppCVM(i int) *intravisor.CVM { return b.Apps[i].App }

// NextDeadline aggregates the earliest future-work instant over every
// time-holding component of the bed: each loop's stack (connection
// timers, devices, ports, serializers, attached conduits) and each
// netem link's delay lines. A value <= now means some component has
// work due right now; math.MaxInt64 means the whole bed is quiescent
// until something outside it (an application's timed action) happens.
// Event-driven experiment drivers use this to leap the virtual clock
// over provably empty poll rounds.
func (b *Bed) NextDeadline(now int64) int64 { return b.LoopDeadlines(now, nil) }

// LoopDeadlines is NextDeadline that also reports where the work is:
// perLoop[i], when perLoop is non-nil (len(b.Loops())), receives loop
// i's own deadline — everything RunOnce on that loop could act on — so
// a driver can step only the loops that are due at the instant it
// visits next (DESIGN.md §8, "Due-set stepping"). The return value is
// the bed-wide aggregate, which also covers the components no loop
// owns: links, the metrics sampler, the fault plane and the supervisor.
func (b *Bed) LoopDeadlines(now int64, perLoop []int64) int64 {
	d := int64(math.MaxInt64)
	for i, l := range b.Loops() {
		at := l.NextDeadline(now)
		if perLoop != nil {
			perLoop[i] = at
		}
		if at < d {
			d = at
		}
	}
	// A link's releases toward an end are in that end's port's answer, so
	// in its loops'; asking the link directly keeps the aggregate correct
	// for a link whose ports are all idle-disarmed. And a held frame must
	// always have a polled owner: where no loop of the receiving end
	// reports the release — the local stack is down, polls nothing and
	// answers MaxInt64 — the peer's loop is charged with it (any port's
	// Step pumps both directions), or the instant would pass with no loop
	// due and the driver would tick through the outage on a past wakeAt.
	for _, p := range b.Peers {
		if p.Link == nil {
			continue
		}
		toLocal := p.Link.NextDeadline(0, now)
		d = min(d, toLocal, p.Link.NextDeadline(1, now))
		if perLoop != nil && !slices.ContainsFunc(p.near, func(i int) bool { return perLoop[i] <= toLocal }) {
			perLoop[p.far] = min(perLoop[p.far], toLocal)
		}
	}
	// The metrics sampler is a timed component too: folding its next
	// sample instant in keeps the timeseries on its grid even when the
	// bed itself would leap further. Nil-safe no-op when obs is off.
	if at := b.Obs.NextDeadline(now); at < d {
		d = at
	}
	// Same for the fault plane's next event and the supervisor's next
	// restart instant (both nil-safe MaxInt64 with no FaultSpec).
	if at := b.Faults.NextDeadline(now); at < d {
		d = at
	}
	if at := b.Super.NextDeadline(now); at < d {
		d = at
	}
	return d
}

// Peer is a remote link partner: its own machine with an ideal NIC and
// a Baseline environment, wired to one local port.
type Peer struct {
	M   *Machine
	Env *Env
	// Port is the local NIC port this peer faces.
	Port int
	// Link is the netem pipeline to the local port, nil for a wire.
	Link *netem.Link
	// near and far index Bed.Loops(): the loops that poll the local port
	// this peer faces, and the peer's own.
	near []int
	far  int
}

// Build wires a spec into a running Bed. Construction order is
// deterministic — machine, then compartments in spec order (each by
// buildEnv's fixed steps), then peers, then stack tuning — so equal
// specs build bit-identical topologies.
func Build(spec Spec) (*Bed, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	arena := nic.NewFrameArena()
	local, err := newMachine(spec.Clk, arena, defaultLocalMAC, spec.Machine, spec.Compartments)
	if err != nil {
		return nil, err
	}
	bed := &Bed{Clk: spec.Clk, Local: local, arena: arena}
	for _, cs := range spec.Compartments {
		env, err := bed.buildEnv(local, cs, LocalIP)
		if err != nil {
			return nil, err
		}
		bed.Envs = append(bed.Envs, env)
		if env.Sharded != nil {
			if bed.Sharded != nil {
				return nil, fmt.Errorf("testbed: only one sharded compartment per bed")
			}
			bed.Sharded, bed.Dev = env.Sharded, env.drv[0]
		}
	}
	for _, ps := range spec.Peers {
		if err := bed.buildPeer(spec, ps); err != nil {
			return nil, err
		}
	}
	// Stack tuning last, before any traffic: compartments in spec
	// order, then peers.
	for i, cs := range spec.Compartments {
		if err := applyStackSpec(bed.Envs[i], cs.Stack); err != nil {
			return nil, err
		}
	}
	for i, ps := range spec.Peers {
		if err := applyStackSpec(bed.Peers[i].Env, ps.Stack); err != nil {
			return nil, err
		}
	}
	// Observability last, over the finished topology; a zero ObsSpec
	// never reaches wireObs, so the hook pointers stay nil everywhere.
	if spec.Obs.Enabled() {
		if err := bed.wireObs(spec); err != nil {
			return nil, err
		}
	}
	// Fault plane after obs (its events trace through the recorder); a
	// zero FaultSpec never reaches wireFaults, so Faults and Super stay
	// nil and FaultStep costs two nil checks.
	if spec.Faults.Enabled() {
		if err := bed.wireFaults(spec); err != nil {
			return nil, err
		}
	}
	return bed, nil
}

// buildEnv wires one network environment on machine m — a local
// compartment or a peer's, all from the same independent axes, composed
// in one fixed order (DESIGN.md §6): where the driver lives, how many
// queue pairs it configures, what stands in front of each queue handle,
// which stack binds the handles, and who calls the stack's API. No
// combination has a constructor of its own, so every combination builds.
// ipOf addresses the interface on a port: the plan's local or peer side.
func (b *Bed) buildEnv(m *Machine, cs CompartmentSpec, ipOf func(port int) fstack.IPv4Addr) (*Env, error) {
	poolBufs := cmp.Or(cs.PoolBufs, DefaultPoolBufs)
	ringSize := uint32(cmp.Or(cs.Stack.RingSize, DefaultRingSize))
	// place creates a home for code and its packet memory: a cVM (nil
	// for a plain process), a DPDK segment in it and a pool in that.
	place := func(name, poolName string) (cvm *intravisor.CVM, seg *dpdk.MemSeg, pool *dpdk.Mempool, err error) {
		if cs.CVM {
			if cvm, err = m.IV.CreateCVM(name, cs.homeBytes()); err == nil {
				seg, err = cvmSeg(m, cvm, cs.segBytes())
			}
		} else {
			seg, err = m.baselineSeg(name, cs.segBytes())
		}
		if err == nil {
			pool, err = dpdk.NewMempool(seg, poolName, poolBufs, dpdk.DefaultDataroom)
		}
		return cvm, seg, pool, err
	}
	env := &Env{Name: cs.Name, k: m.K}
	placeStack := func() (err error) {
		env.CVM, env.Seg, env.Pool, err = place(cmp.Or(cs.CVMName, cs.Name), cmp.Or(cs.PoolName, cs.Name+"-pkt"))
		return err
	}

	// 1. Where the driver lives: with the stack, or in a cVM of its own
	// that the stack reaches only through sealed per-burst gates.
	var drvCVM *intravisor.CVM
	var drvSeg *dpdk.MemSeg
	var drvPool *dpdk.Mempool
	var err error
	if cs.DeviceGate {
		drvCVM, drvSeg, drvPool, err = place(cmp.Or(cs.DevCVMName, cs.Name+"-dpdk"), "dpdk-pkt")
	} else if err = placeStack(); err == nil {
		drvSeg, drvPool = env.Seg, env.Pool
	}
	if err != nil {
		return nil, err
	}

	// 2. How many queue pairs each port gets.
	nq := cs.Stack.queues()
	for _, ic := range cs.Ifs {
		dev, err := dpdk.Probe(m.K.PCI, m.Card.Port(ic.Port).BDF(), drvSeg)
		if err != nil {
			return nil, err
		}
		if err := dev.ConfigureQueues(nq, ringSize, ringSize, drvPool); err != nil {
			return nil, err
		}
		if err := dev.Start(); err != nil {
			return nil, err
		}
		env.drv = append(env.drv, dev)
	}

	// 3. What stands in front of each queue handle: the gated proxy (its
	// stack-side half needs the stack's home, placed after the driver's
	// and its gates), then the CPU budget of the queue's shard's thread.
	if cs.DeviceGate {
		for _, dev := range env.drv {
			g, err := NewDevGates(m.IV, drvCVM, dev, drvPool, env)
			if err != nil {
				return nil, err
			}
			env.devGates = append(env.devGates, g)
		}
		if err := placeStack(); err != nil {
			return nil, err
		}
	} else {
		env.Devs = env.drv
	}

	// 4. Which stack binds the handles: one shard per queue pair, one for
	// an unsharded stack, whose thread in a cVM is the cVM's; every port's
	// handle for a queue books on that shard's core. The steering oracle
	// is a pure function of the RSS key and table the driver programmed,
	// so a device-gated stack asks it directly (like NextDeadline) instead
	// of across the gates.
	if env.set, err = fstack.NewShardedStack(nq, env.Seg, env.Pool, b.Clk); err != nil {
		return nil, err
	}
	shards := env.set.Shards()
	if cs.Stack.Shards == 0 && env.CVM != nil {
		shards[0].Core = &env.CVM.Core
	}
	for i, ic := range cs.Ifs {
		handles := make([]fstack.EthDevice, nq)
		for q := range handles {
			handles[q] = env.drv[i].Queue(q)
			if cs.DeviceGate {
				handles[q] = NewGatedEthDev(env.devGates[i], env.CVM, env.Pool, q)
			}
			if cs.Stack.CPUBps > 0 {
				handles[q] = newCPUDev(handles[q], b.Clk, shards[q].Core, cs.Stack.CPUBps)
			}
		}
		if err := env.set.AddNetIF(handles, env.drv[i].RxQueueOf, ipOf(ic.Port), Mask24); err != nil {
			return nil, err
		}
	}
	if cs.Stack.Shards > 0 {
		env.Sharded = env.set
	} else {
		env.Stk = shards[0]
	}

	// 5. Who calls the API: code inside the compartment, or application
	// cVMs through sealed gates, each on a descriptor view of its own.
	if cs.APIGate {
		if b.Gates, err = NewStackGates(m.IV, env); err != nil {
			return nil, err
		}
		b.gatesEnv = env
		for _, appName := range cs.AppCVMs {
			app, err := m.IV.CreateCVM(appName, appAreaBytes)
			if err != nil {
				return nil, err
			}
			b.Apps = append(b.Apps, NewGatedAPI(b.Gates, app))
		}
	}
	return env, nil
}

// buildPeer wires one link partner per its spec.
func (b *Bed) buildPeer(spec Spec, ps PeerSpec) error {
	// A fast line or an impaired link, whose window-scaled flows buffer
	// multi-MiB per connection, gets the large environment sizing.
	segBytes, poolBufs := uint64(DefaultSegBytes), DefaultPoolBufs
	if spec.Machine.LineRateBps > defaultLineRate || ps.Link != nil {
		segBytes, poolBufs = bigPeerSegBytes, bigPeerPoolBufs
	}
	name := peerName(ps.Port)
	cs := CompartmentSpec{
		Name:     name,
		SegBytes: cmp.Or(ps.SegBytes, segBytes),
		PoolBufs: cmp.Or(ps.PoolBufs, poolBufs),
		Ifs:      []IfSpec{{Port: 0}},
		Stack:    ps.Stack,
	}
	// Both ends of a cable serialize at one rate: the local machine's.
	m, err := newMachine(spec.Clk, b.arena, defaultPeerMAC+byte(ps.Port),
		MachineSpec{Name: name, Ports: defaultPeerPorts, LineRateBps: spec.Machine.LineRateBps}, []CompartmentSpec{cs})
	if err != nil {
		return err
	}
	env, err := b.buildEnv(m, cs, func(int) fstack.IPv4Addr { return PeerIP(ps.Port) })
	if err != nil {
		return err
	}
	p := &Peer{M: m, Env: env, Port: ps.Port}
	// Bed.Loops() lists the compartments' stacks in spec order, then
	// one per peer; far counts up to this peer's.
	for i, cs := range spec.Compartments {
		faces := slices.ContainsFunc(cs.Ifs, func(ic IfSpec) bool { return ic.Port == ps.Port })
		for range b.Envs[i].Stacks() {
			if faces {
				p.near = append(p.near, p.far)
			}
			p.far++
		}
	}
	p.far += len(b.Peers)
	localPort := b.Local.Card.Port(ps.Port)
	if ps.Link != nil {
		p.Link = netem.ConnectAsym(spec.Clk, localPort, m.Card.Port(0), ps.Link.ToPeer, ps.Link.ToLocal)
	} else {
		nic.Connect(localPort, m.Card.Port(0))
	}
	b.Peers = append(b.Peers, p)
	b.Links = append(b.Links, p.Link)
	return nil
}

// applyStackSpec applies the tuning half of a StackSpec to a built
// environment (single stack or every shard).
func applyStackSpec(env *Env, ss StackSpec) error {
	if ss.Tuning == nil {
		return nil
	}
	for _, stk := range env.Stacks() {
		if err := stk.SetTCPTuning(*ss.Tuning); err != nil {
			return err
		}
	}
	return nil
}

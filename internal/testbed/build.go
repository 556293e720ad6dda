package testbed

import (
	"fmt"
	"math"

	"repro/internal/dpdk"
	"repro/internal/faultplane"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/intravisor"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
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
	loops []*fstack.Loop

	// arena is this bed's private frame-buffer pool, shared by the
	// local machine, every peer and every link — frames never cross
	// beds, so concurrent sweep cells never contend on one global pool.
	arena *nic.FrameArena

	// gatesEnv is the environment Gates exports, so a restart knows
	// whose gates to re-seal.
	gatesEnv *Env
}

// Loops lists every main loop in the bed (local compartments first —
// shard loops in shard order for sharded ones — then peers). The
// slice is cached; callers must not mutate it.
func (b *Bed) Loops() []*fstack.Loop {
	if b.loops != nil {
		return b.loops
	}
	var out []*fstack.Loop
	for _, e := range b.Envs {
		out = append(out, e.Loops()...)
	}
	for _, p := range b.Peers {
		out = append(out, p.Env.Loop)
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
	// The loops reach the links through their ports already; asking
	// the links directly keeps the answer correct even for a link
	// whose ports are all idle-disarmed.
	for _, ln := range b.Links {
		if ln == nil {
			continue
		}
		if at := ln.NextDeadline(now); at < d {
			d = at
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
}

// Build wires a spec into a running Bed. Construction order is
// deterministic — machine, then compartments in spec order (each env,
// then its gates and app cVMs), then peers, then stack tuning — so
// equal specs build bit-identical topologies.
func Build(spec Spec) (*Bed, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	macLast := spec.Machine.MACLast
	if macLast == 0 {
		macLast = defaultLocalMAC
	}
	arena := nic.NewFrameArena()
	local, err := newMachine(machineConfig{
		Name:        spec.Machine.Name,
		Clk:         spec.Clk,
		MemBytes:    spec.Machine.MemBytes,
		Ports:       spec.Machine.Ports,
		LineRateBps: spec.Machine.LineRateBps,
		RxFifoBytes: spec.Machine.RxFifoBytes,
		BusLimited:  spec.Machine.BusLimited,
		CapDMA:      spec.Machine.CapDMA,
		MACLast:     macLast,
		Arena:       arena,
	})
	if err != nil {
		return nil, err
	}
	bed := &Bed{Clk: spec.Clk, Local: local, arena: arena}
	for _, cs := range spec.Compartments {
		if err := bed.buildCompartment(cs); err != nil {
			return nil, err
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
		applyStackSpec(bed.Envs[i], cs.Stack)
	}
	for i, ps := range spec.Peers {
		applyStackSpec(bed.Peers[i].Env, ps.Stack)
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

// buildCompartment wires one local environment per its spec.
func (b *Bed) buildCompartment(cs CompartmentSpec) error {
	segBytes := cs.SegBytes
	if segBytes == 0 {
		segBytes = DefaultSegBytes
	}
	poolBufs := cs.PoolBufs
	if poolBufs == 0 {
		poolBufs = DefaultPoolBufs
	}
	poolName := cs.PoolName
	if poolName == "" {
		poolName = cs.Name + "-pkt"
	}
	ringSize := cs.Stack.RingSize
	if ringSize == 0 {
		ringSize = DefaultRingSize
	}
	cvmName := cs.CVMName
	if cvmName == "" {
		cvmName = cs.Name
	}
	cvmBytes := cs.CVMBytes
	if cvmBytes == 0 {
		cvmBytes = DefaultCVMBytes
	}

	if cs.DeviceGate {
		env, err := b.buildDeviceGated(cs, cvmName, poolName, cvmBytes, segBytes, poolBufs, ringSize)
		if err != nil {
			return err
		}
		b.Envs = append(b.Envs, env)
		return nil
	}

	var cvm *intravisor.CVM
	var seg *dpdk.MemSeg
	var err error
	if cs.CVM {
		cvm, err = b.Local.NewCVMSized(cvmName, cvmBytes)
		if err != nil {
			return err
		}
		seg, err = cvmSeg(b.Local, cvm, segBytes)
	} else {
		seg, err = b.Local.baselineSeg(cs.Name, segBytes)
	}
	if err != nil {
		return err
	}

	if cs.Stack.Shards > 0 {
		env, err := b.buildSharded(cs, cvm, seg, poolName, poolBufs, ringSize)
		if err != nil {
			return err
		}
		b.Envs = append(b.Envs, env)
		return nil
	}

	env, err := b.Local.finishEnv(cs.Name, poolName, cvm, seg, cs.Ifs, poolBufs, ringSize)
	if err != nil {
		return err
	}
	b.Envs = append(b.Envs, env)

	if cs.APIGate {
		gates, err := NewStackGates(b.Local.IV, env)
		if err != nil {
			return err
		}
		b.Gates = gates
		b.gatesEnv = env
		for _, appName := range cs.AppCVMs {
			app, err := b.Local.NewCVM(appName)
			if err != nil {
				return err
			}
			b.Apps = append(b.Apps, NewGatedAPI(gates, app, b.Local.K.Mem))
		}
	}
	return nil
}

// buildSharded wires a multi-queue RSS port with one CPU-budgeted
// stack shard per queue pair.
func (b *Bed) buildSharded(cs CompartmentSpec, cvm *intravisor.CVM, seg *dpdk.MemSeg, poolName string, poolBufs, ringSize int) (*Env, error) {
	if b.Sharded != nil {
		return nil, fmt.Errorf("testbed: only one sharded compartment per bed")
	}
	pool, err := dpdk.NewMempool(seg, poolName, poolBufs, dpdk.DefaultDataroom)
	if err != nil {
		return nil, err
	}
	ic := cs.Ifs[0]
	dev, err := dpdk.Probe(b.Local.K.PCI, b.Local.Card.Port(ic.Port).BDF(), seg)
	if err != nil {
		return nil, err
	}
	if err := dev.ConfigureQueues(cs.Stack.Shards, uint32(ringSize), uint32(ringSize), pool); err != nil {
		return nil, err
	}
	if err := dev.Start(); err != nil {
		return nil, err
	}
	ss, err := fstack.NewShardedStack(cs.Stack.Shards, seg, pool, b.Clk)
	if err != nil {
		return nil, err
	}
	var wrap func(shard int, d fstack.EthDevice) fstack.EthDevice
	if cs.Stack.CPUBps > 0 {
		window := cs.Stack.CPUWindowNS
		if window == 0 {
			window = defaultCPUWindow(cs.Stack.CPUBps)
		}
		wrap = func(shard int, d fstack.EthDevice) fstack.EthDevice {
			return cpuDev{dev: d, cpu: sim.NewSerializer(b.Clk, cs.Stack.CPUBps, window)}
		}
	}
	if err := ss.AddNetIF(ifName(ic), dev, ifIP(ic), ifMask(ic), wrap); err != nil {
		return nil, err
	}
	env := &Env{Name: cs.Name, CVM: cvm, Seg: seg, Pool: pool, Devs: []*dpdk.EthDev{dev}, Sharded: ss}
	b.Sharded, b.Dev = ss, dev
	return env, nil
}

// buildDeviceGated wires the split-driver layout: one cVM holds only
// the DPDK driver, a second holds F-Stack + application, and every
// burst crosses sealed gates between them.
func (b *Bed) buildDeviceGated(cs CompartmentSpec, cvmName, poolName string, cvmBytes, segBytes uint64, poolBufs, ringSize int) (*Env, error) {
	devName := cs.DevCVMName
	if devName == "" {
		devName = cs.Name + "-dpdk"
	}
	ic := cs.Ifs[0]

	// The driver compartment — segment, pool, bound port.
	dpdkCVM, err := b.Local.NewCVMSized(devName, cvmBytes)
	if err != nil {
		return nil, err
	}
	devSeg, err := cvmSeg(b.Local, dpdkCVM, segBytes)
	if err != nil {
		return nil, err
	}
	devPool, err := dpdk.NewMempool(devSeg, "dpdk-pkt", poolBufs, dpdk.DefaultDataroom)
	if err != nil {
		return nil, err
	}
	dev, err := dpdk.Probe(b.Local.K.PCI, b.Local.Card.Port(ic.Port).BDF(), devSeg)
	if err != nil {
		return nil, err
	}
	if err := dev.Configure(uint32(ringSize), uint32(ringSize), devPool); err != nil {
		return nil, err
	}
	if err := dev.Start(); err != nil {
		return nil, err
	}
	gates, err := NewDevGates(b.Local.IV, dpdkCVM, dev, devPool)
	if err != nil {
		return nil, err
	}

	// The stack compartment — F-Stack + application, no direct NIC
	// access.
	stackCVM, err := b.Local.NewCVMSized(cvmName, cvmBytes)
	if err != nil {
		return nil, err
	}
	seg, err := cvmSeg(b.Local, stackCVM, segBytes)
	if err != nil {
		return nil, err
	}
	pool, err := dpdk.NewMempool(seg, poolName, poolBufs, dpdk.DefaultDataroom)
	if err != nil {
		return nil, err
	}
	stk := fstack.NewStack(seg, pool, b.Clk)
	gdev := NewGatedEthDev(gates, stackCVM, pool)
	stk.AddNetIF(ifName(ic), gdev, ifIP(ic), ifMask(ic))
	env := &Env{Name: cs.Name, CVM: stackCVM, Seg: seg, Pool: pool, Stk: stk}
	env.Loop = &fstack.Loop{Stk: stk}
	return env, nil
}

// buildPeer wires one link partner per its spec.
func (b *Bed) buildPeer(spec Spec, ps PeerSpec) error {
	lineRate := ps.LineRateBps
	big := ps.Big || lineRate > defaultLineRate || ps.Link != nil
	segBytes, poolBufs := uint64(DefaultSegBytes), DefaultPoolBufs
	if big {
		segBytes, poolBufs = bigPeerSegBytes, bigPeerPoolBufs
	}
	if ps.SegBytes != 0 {
		segBytes = ps.SegBytes
	}
	if ps.PoolBufs != 0 {
		poolBufs = ps.PoolBufs
	}
	name := peerName(ps)
	m, err := newMachine(machineConfig{
		Name: name, Clk: spec.Clk, Ports: defaultPeerPorts,
		LineRateBps: lineRate, MACLast: peerMAC(ps),
		Arena: b.arena,
	})
	if err != nil {
		return err
	}
	seg, err := m.baselineSeg(name, segBytes)
	if err != nil {
		return err
	}
	ringSize := ps.Stack.RingSize
	if ringSize == 0 {
		ringSize = DefaultRingSize
	}
	env, err := m.finishEnv(name, name+"-pkt", nil, seg,
		[]IfSpec{{Port: 0, Name: "eth0", IP: PeerIP(ps.Port), Mask: Mask24}},
		poolBufs, ringSize)
	if err != nil {
		return err
	}
	p := &Peer{M: m, Env: env, Port: ps.Port}
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
func applyStackSpec(env *Env, ss StackSpec) {
	stacks := []*fstack.Stack{}
	if env.Sharded != nil {
		for i := 0; i < env.Sharded.NumShards(); i++ {
			stacks = append(stacks, env.Sharded.Shard(i))
		}
	} else if env.Stk != nil {
		stacks = append(stacks, env.Stk)
	}
	for _, stk := range stacks {
		if ss.RTOMinNS > 0 {
			stk.SetRTOMin(ss.RTOMinNS)
		}
		if ss.Tuning != nil {
			stk.SetTCPTuning(*ss.Tuning)
		}
	}
}

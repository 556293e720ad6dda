package testbed

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/nic"
)

// Default sizing for the simulated machines. Every spec field that
// admits a zero value falls back to one of these, which reproduce the
// paper's testbed. What a spec cannot say is derived: see machineMem.
const (
	// DefaultSegBytes is a DPDK segment inside a process/cVM.
	DefaultSegBytes = 8 << 20
	// DefaultPoolBufs is the mbufs per packet pool.
	DefaultPoolBufs = 2048
	// DefaultRingSize is the RX/TX descriptor count per queue.
	DefaultRingSize = 512

	// Big link partners (fast ports, WAN links) carry many flows or
	// multi-MiB socket buffers; their environment is sized up so the
	// peer is never the bottleneck.
	bigPeerSegBytes  = 24 << 20
	bigPeerPoolBufs  = 3072
	defaultPeerMAC   = 0x80
	defaultLocalMAC  = 0x01
	defaultLineRate  = 1e9
	defaultPeerPorts = 1
)

// Spec describes a complete experiment topology. Build wires it.
type Spec struct {
	// Clk drives every machine, device and stack in the bed.
	Clk hostos.Clock
	// Machine is the local box under test.
	Machine MachineSpec
	// Compartments are the local network environments, in order. Port
	// ownership, addressing and gate policy are per compartment.
	Compartments []CompartmentSpec
	// Peers are the remote link partners, one per wired local port.
	Peers []PeerSpec
	// Obs enables the virtual-time observability layer. The zero value
	// keeps observability completely off: no hooks fire, no memory is
	// allocated, and the bed's behavior is bit-identical to a bed built
	// without it.
	Obs ObsSpec
	// Faults declares the deterministic fault schedule and the
	// supervisor's restart policy. The zero value keeps the fault plane
	// off with the same bit-identity guarantee as Obs.
	Faults FaultSpec
}

// ObsSpec selects the observability instruments wired into a bed. Each
// field independently enables one instrument; the zero value disables
// everything at zero cost.
type ObsSpec struct {
	// TraceEvents, when positive, attaches a flight recorder (a ring
	// keeping the most recent TraceEvents events) to every layer:
	// netem drops/enqueues, NIC and driver bursts, TCP state changes,
	// retransmissions and cwnd moves, and gate crossings.
	TraceEvents int
	// SampleNS, when positive, samples the bed's gauges (per-env cwnd
	// and pipe, per-device throughput, netem queue depths, gate
	// crossings) every SampleNS virtual nanoseconds into a timeseries.
	SampleNS int64
	// Latency attaches log-bucketed histograms for per-frame datapath
	// latency (wire arrival to DMA completion) and TCP RTT samples.
	Latency bool
	// PcapDir, when non-empty, writes one libpcap capture per peer link
	// into this directory (created if missing). The tap sits at the
	// receiving end of each cable, so impairment drops appear as gaps
	// in the capture.
	PcapDir string
}

// Enabled reports whether any instrument is on.
func (o ObsSpec) Enabled() bool {
	return o.TraceEvents > 0 || o.SampleNS > 0 || o.Latency || o.PcapDir != ""
}

// MachineSpec parameterizes the local machine: its NIC and bus model.
// Its memory is the sum of what Build places on it, and its card
// does capability DMA exactly when its compartments are cVMs.
type MachineSpec struct {
	Name string
	// Ports on the machine's NIC.
	Ports int
	// LineRateBps overrides the per-port line rate; 0 means the paper's
	// 1 GbE. A cable has one rate: every peer serializes at it too.
	LineRateBps float64
	// RxFifoBytes overrides the per-queue RX packet buffer; 0 keeps the
	// 82576's 64 KiB.
	RxFifoBytes int
	// BusLimited installs the calibrated 82576 shared-bus model.
	BusLimited bool
}

// StackSpec tunes one environment's network stack.
type StackSpec struct {
	// Shards, when positive, runs a ShardedStack over that many NIC
	// RX/TX queue pairs (1 is the single-queue layout over the same
	// multi-queue hardware). Zero keeps the plain single stack of the
	// paper's scenarios.
	Shards int
	// RingSize overrides the per-queue descriptor count (0 = 512).
	RingSize int
	// CPUBps, when positive, charges every frame byte a shard moves
	// against a per-shard core budget of this many bits per second —
	// the multi-core CPU model. It requires a sharded stack and is
	// rejected on peers (ideal cores). A core may be booked three
	// full-size frame times ahead.
	CPUBps float64
	// Tuning, when non-nil, applies modern TCP knobs (SACK, window
	// scaling, buffer sizes, congestion-control selection); nil keeps
	// the paper's stack. An unknown Congestion name is a spec error.
	Tuning *fstack.TCPTuning
	// RTOMinNS, when positive, raises the retransmission-timer floor.
	RTOMinNS int64
}

// queues is how many queue pairs each of the environment's ports is
// configured with: one per shard.
func (ss StackSpec) queues() int { return max(1, ss.Shards) }

// IfSpec binds one NIC port to an interface of a compartment's stack.
// The interface is eth<Port>, addressed by the testbed plan: port i is
// subnet 10.0.i.0/24 with .1 local and .2 remote.
type IfSpec struct {
	Port int
}

// CompartmentSpec describes one local network environment: a Baseline
// process or a capability cVM, its sizing, the ports it owns, its
// stack tuning, and its gate policy. One card has one DMA regime, so a
// machine's compartments are all processes or all cVMs.
type CompartmentSpec struct {
	Name string
	// CVM runs the environment inside a capability cVM; false is a
	// plain process over raw kernel memory.
	CVM bool
	// CVMName overrides the cVM's name (defaults to Name).
	CVMName string
	// SegBytes sizes the DPDK segment (0 = 8 MiB); a cVM's window is its
	// segment plus the fixed application area below it.
	SegBytes uint64
	// PoolBufs sizes the packet pool (0 = 2048); PoolName overrides the
	// pool's name (defaults to Name+"-pkt").
	PoolBufs int
	PoolName string
	// Ifs are the NIC ports this compartment owns.
	Ifs []IfSpec
	// Stack tunes the compartment's stack (sharding, TCP knobs).
	Stack StackSpec
	// APIGate exports the stack's API through sealed cross-compartment
	// gates, and AppCVMs names the application cVMs created to call
	// through them (Scenario 2's layout). Requires CVM.
	APIGate bool
	AppCVMs []string
	// DeviceGate splits the DPDK driver into its own cVM (named
	// DevCVMName, default Name+"-dpdk"): the stack reaches the NIC only
	// through sealed per-burst gates (Scenario 3's layout). Requires
	// CVM.
	DeviceGate bool
	DevCVMName string
}

// LinkSpec describes an impaired link in place of the direct cable,
// with independent per-direction netem configurations — asymmetric
// loss and slow-ACK-channel experiments are two fields, not new
// topology code.
type LinkSpec struct {
	// ToPeer impairs frames leaving the local box toward the peer.
	ToPeer netem.Config
	// ToLocal impairs the reverse path.
	ToLocal netem.Config
}

// SymmetricLink applies one netem config to both directions.
func SymmetricLink(cfg netem.Config) *LinkSpec {
	return &LinkSpec{ToPeer: cfg, ToLocal: cfg}
}

// PeerSpec describes one remote link partner: machine peer<Port> with
// an ideal NIC at the local machine's line rate and a Baseline
// environment, wired (directly or through a netem link) to one local
// port.
type PeerSpec struct {
	// Port is the local NIC port this peer faces.
	Port int
	// SegBytes / PoolBufs override the environment sizing (the default
	// grows for a fast line, > 1 GbE, or an impaired link).
	SegBytes uint64
	PoolBufs int
	// Link, when non-nil, interposes a netem impairment pipeline in
	// place of the direct cable.
	Link *LinkSpec
	// Stack tunes the peer's stack (TCP knobs only; peers never shard).
	Stack StackSpec
}

// validate checks a spec's internal consistency and its address plan,
// returning an error instead of silently overlapping resources.
func (s Spec) validate() error {
	if s.Clk == nil {
		return fmt.Errorf("testbed: spec needs a clock")
	}
	if s.Machine.Ports <= 0 {
		return fmt.Errorf("testbed: machine needs at least one NIC port")
	}
	if len(s.Compartments) == 0 {
		return fmt.Errorf("testbed: spec has no compartments")
	}
	if err := validRate(s.Machine.LineRateBps, "machine "+s.Machine.Name, "LineRateBps"); err != nil {
		return err
	}
	// Who claimed each name, each local port and each cable: a collision
	// is an error naming both claimants.
	names, owners, facing := map[string]string{}, map[int]string{}, map[int]string{}
	claimName := func(name, what string) error {
		if prev, ok := names[name]; ok {
			return fmt.Errorf("testbed: name %q claimed by both %s and %s", name, prev, what)
		}
		names[name] = what
		return nil
	}
	for i, cs := range s.Compartments {
		what := fmt.Sprintf("compartment %s", cs.Name)
		if cs.Name == "" {
			return fmt.Errorf("testbed: compartment %d has no name", i)
		}
		// A cVM's port must do capability DMA and a process's cannot: on a
		// mixed card one of the two would DMA anywhere, or nowhere.
		if first := s.Compartments[0]; cs.CVM != first.CVM {
			return fmt.Errorf("testbed: %s and compartment %s mix a cVM and a process on one card, which has one DMA regime",
				what, first.Name)
		}
		if err := claimName(cs.Name, what); err != nil {
			return err
		}
		if (cs.APIGate || cs.DeviceGate) && !cs.CVM {
			return fmt.Errorf("testbed: %s: gates need a cVM-hosted stack", what)
		}
		if len(cs.AppCVMs) > 0 && !cs.APIGate {
			return fmt.Errorf("testbed: %s: application cVMs need APIGate", what)
		}
		if cs.Stack.Shards > 0 && len(cs.Ifs) != 1 {
			return fmt.Errorf("testbed: %s: a sharded stack drives exactly one port", what)
		}
		if cs.DeviceGate && len(cs.Ifs) != 1 {
			return fmt.Errorf("testbed: %s: a device-gated stack drives exactly one port", what)
		}
		if cs.Stack.Shards > nic.MaxQueues {
			return fmt.Errorf("testbed: %s: %d shards, a port has %d queue pairs", what, cs.Stack.Shards, nic.MaxQueues)
		}
		if err := validRate(cs.Stack.CPUBps, what, "Stack.CPUBps"); err != nil {
			return err
		}
		if cs.Stack.CPUBps > 0 && cs.Stack.Shards == 0 {
			return fmt.Errorf("testbed: %s: a CPU budget needs a sharded stack (set Shards >= 1)", what)
		}
		if err := validStackTuning(cs.Stack, what); err != nil {
			return err
		}
		if cs.CVMName != "" && cs.CVMName != cs.Name {
			if err := claimName(cs.CVMName, fmt.Sprintf("cVM of %s", cs.Name)); err != nil {
				return err
			}
		}
		if cs.DeviceGate {
			devName := cs.DevCVMName
			if devName == "" {
				devName = cs.Name + "-dpdk"
			}
			if err := claimName(devName, fmt.Sprintf("driver cVM of %s", cs.Name)); err != nil {
				return err
			}
		}
		for _, app := range cs.AppCVMs {
			if err := claimName(app, fmt.Sprintf("app cVM of %s", cs.Name)); err != nil {
				return err
			}
		}
		for _, ic := range cs.Ifs {
			if ic.Port < 0 || ic.Port >= s.Machine.Ports {
				return fmt.Errorf("testbed: %s: port %d out of range [0,%d)", what, ic.Port, s.Machine.Ports)
			}
			if prev, ok := owners[ic.Port]; ok {
				return fmt.Errorf("testbed: local port %d claimed by both %s and %s", ic.Port, prev, what)
			}
			owners[ic.Port] = what
		}
	}
	for _, ps := range s.Peers {
		what := "peer " + peerName(ps.Port)
		if ps.Port < 0 || ps.Port >= s.Machine.Ports {
			return fmt.Errorf("testbed: %s: port %d out of range [0,%d)", what, ps.Port, s.Machine.Ports)
		}
		if ps.Stack.Shards > 0 {
			return fmt.Errorf("testbed: %s: peers never shard", what)
		}
		if ps.Stack.CPUBps != 0 {
			return fmt.Errorf("testbed: %s: peers stand in for the other end of the cable and have ideal cores", what)
		}
		link := cmp.Or(ps.Link, &LinkSpec{})
		if err := cmp.Or(validRate(link.ToPeer.RateBps, what, "Link.ToPeer.RateBps"),
			validRate(link.ToLocal.RateBps, what, "Link.ToLocal.RateBps")); err != nil {
			return err
		}
		if err := validStackTuning(ps.Stack, what); err != nil {
			return err
		}
		// The cable before the name: two peers on one port have one name.
		if prev, ok := facing[ps.Port]; ok {
			return fmt.Errorf("testbed: port %d already faces %s; %s cannot share the cable", ps.Port, prev, what)
		}
		facing[ps.Port] = what
		if err := claimName(peerName(ps.Port), what); err != nil {
			return err
		}
	}
	return s.validateFaults()
}

// validRate rejects a bit rate that is neither unset (0) nor positive and
// finite: it would pass for unset, or price the bookings of the sim.Core
// it paces (sim.BytesNS) in negative, zero or undefined time.
func validRate(v float64, what, field string) error {
	if !(v >= 0) || math.IsInf(v, 0) {
		return fmt.Errorf("testbed: %s: %s is %v; a rate is positive, or 0 for unset", what, field, v)
	}
	return nil
}

// validStackTuning rejects TCP tunings the stack would refuse at
// connection time — validation belongs here, where the spec's author
// gets the error, not inside a failing connect mid-experiment.
func validStackTuning(ss StackSpec, what string) error {
	if ss.Tuning != nil && !fstack.ValidCongestion(ss.Tuning.Congestion) {
		return fmt.Errorf("testbed: %s: unknown congestion-control algorithm %q (have %v)",
			what, ss.Tuning.Congestion, fstack.CongestionAlgos())
	}
	return nil
}

package core

import (
	"fmt"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/testbed"
)

// The paper's topologies, each as a declarative spec. The constructor
// names survive as one-line aliases so drivers, examples and tests read
// the same, but every axis (sizing, capability mode, gates, peers) is a
// spec field rather than a dedicated constructor.

// NewBaselineDual builds the Baseline of §III-A as compared against
// Scenario 1: two non-CHERI processes, each owning one port of the
// shared 82576.
func NewBaselineDual(clk hostos.Clock) (*Setup, error) {
	return testbed.Build(testbed.Spec{
		Clk:     clk,
		Machine: testbed.MachineSpec{Name: "morello", Ports: 2, BusLimited: true},
		Compartments: []testbed.CompartmentSpec{
			{Name: "proc1", Ifs: []testbed.IfSpec{{Port: 0}}},
			{Name: "proc2", Ifs: []testbed.IfSpec{{Port: 1}}},
		},
		Peers: []testbed.PeerSpec{{Port: 0}, {Port: 1}},
	})
}

// NewScenario1 builds Scenario 1: two cVMs, each containing the whole
// application + F-Stack + DPDK stack on its own dedicated port, in
// hybrid (capability) mode.
func NewScenario1(clk hostos.Clock) (*Setup, error) {
	return testbed.Build(testbed.Spec{
		Clk:     clk,
		Machine: testbed.MachineSpec{Name: "morello", Ports: 2, BusLimited: true},
		Compartments: []testbed.CompartmentSpec{
			{Name: "cvm1", CVM: true, Ifs: []testbed.IfSpec{{Port: 0}}},
			{Name: "cvm2", CVM: true, Ifs: []testbed.IfSpec{{Port: 1}}},
		},
		Peers: []testbed.PeerSpec{{Port: 0}, {Port: 1}},
	})
}

// NewBaselineSingle builds the Baseline compared against Scenario 2:
// one non-CHERI process owning one port, application in-process.
func NewBaselineSingle(clk hostos.Clock) (*Setup, error) {
	return testbed.Build(testbed.Spec{
		Clk:     clk,
		Machine: testbed.MachineSpec{Name: "morello", Ports: 2, BusLimited: true},
		Compartments: []testbed.CompartmentSpec{
			{Name: "proc", Ifs: []testbed.IfSpec{{Port: 0}}},
		},
		Peers: []testbed.PeerSpec{{Port: 0}},
	})
}

// NewScenario2 builds Scenario 2: cVM1 runs F-Stack + DPDK on one port;
// apps application cVMs (1 = uncontended, 2 = contended) reach it
// through cross-compartment gates.
func NewScenario2(clk hostos.Clock, apps int) (*Setup, error) {
	if apps < 1 || apps > 2 {
		return nil, fmt.Errorf("core: scenario 2 supports 1 or 2 application cVMs")
	}
	return testbed.Build(testbed.Spec{
		Clk:     clk,
		Machine: testbed.MachineSpec{Name: "morello", Ports: 2, BusLimited: true},
		Compartments: []testbed.CompartmentSpec{
			{
				Name: "cvm1", CVM: true,
				Ifs:     []testbed.IfSpec{{Port: 0}},
				APIGate: true,
				AppCVMs: []string{"cvm2", "cvm3"}[:apps],
			},
		},
		Peers: []testbed.PeerSpec{{Port: 0}},
	})
}

// NewScenario3 builds the future-work layout (§VI): cVM1 = DPDK only,
// cVM2 = F-Stack + application, one port, sealed gates on the datapath
// between them.
func NewScenario3(clk hostos.Clock) (*Setup, error) {
	return testbed.Build(testbed.Spec{
		Clk:     clk,
		Machine: testbed.MachineSpec{Name: "morello", Ports: 2, BusLimited: true},
		Compartments: []testbed.CompartmentSpec{
			{
				Name: "cvm2", CVM: true, CVMName: "cvm2-fstack",
				PoolName:   "fstack-pkt",
				Ifs:        []testbed.IfSpec{{Port: 0}},
				DeviceGate: true, DevCVMName: "cvm1-dpdk",
			},
		},
		Peers: []testbed.PeerSpec{{Port: 0}},
	})
}

// boxSpec is the topology Scenarios 4-9 share, and the only part of
// their specs that differs: one compartment — a process, or cVM "cvm1"
// in capability mode — owning port 0 of a one-port machine, and one
// link partner over a wire or a netem link. A scenario sizes what it
// fills (segments and pools); machine memory, cVM windows and the DMA
// regime follow from that in testbed.Build.
type boxSpec struct {
	// name is the compartment's name; "" names it after its mode
	// ("proc" / "cvm1").
	name    string
	capMode bool
	// lineRate and rxFifo size the port (0 = the paper's 82576).
	lineRate float64
	rxFifo   int
	// segBytes and poolBufs size the local compartment; peerSeg and
	// peerPool the peer's environment (0 = the testbed's sizing).
	segBytes         uint64
	poolBufs         int
	peerSeg          uint64
	peerPool         int
	stack, peerStack testbed.StackSpec
	link             *testbed.LinkSpec
	obs              testbed.ObsSpec
}

func (b boxSpec) build(clk hostos.Clock) (*Setup, error) {
	name := b.name
	if name == "" {
		name = "proc"
		if b.capMode {
			name = "cvm1"
		}
	}
	return testbed.Build(testbed.Spec{
		Clk: clk,
		Machine: testbed.MachineSpec{
			Name: "morello", Ports: 1,
			LineRateBps: b.lineRate, RxFifoBytes: b.rxFifo,
		},
		Compartments: []testbed.CompartmentSpec{{
			Name: name, CVM: b.capMode, CVMName: "cvm1",
			SegBytes: b.segBytes, PoolBufs: b.poolBufs,
			Ifs:   []testbed.IfSpec{{Port: 0}},
			Stack: b.stack,
		}},
		Peers: []testbed.PeerSpec{{
			Port: 0, SegBytes: b.peerSeg, PoolBufs: b.peerPool,
			Link: b.link, Stack: b.peerStack,
		}},
		Obs: b.obs,
	})
}

// modernTuning is the stack configuration the paper's port lacks:
// RFC 2018 SACK, RFC 7323 window scaling by wscale, both socket buffers
// at bufBytes, and the named congestion controller ("" = reno).
func modernTuning(bufBytes int, wscale uint8, cc string) fstack.TCPTuning {
	return fstack.TCPTuning{
		SACK: true, WindowScale: wscale,
		SndBufBytes: bufBytes, RcvBufBytes: bufBytes,
		Congestion: cc,
	}
}

// connTuning is the connection-plane configuration of Scenarios 8-10:
// small socket buffers of bufBytes and a bounded half-open cache, with
// or without SACK.
func connTuning(sack bool, bufBytes, synCache int) *fstack.TCPTuning {
	return &fstack.TCPTuning{
		SACK: sack, SynCacheSize: synCache,
		SndBufBytes: bufBytes, RcvBufBytes: bufBytes,
	}
}

package testbed

import (
	"cmp"
	"fmt"

	"repro/internal/cheri"
	"repro/internal/dpdk"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/intravisor"
	"repro/internal/nic"
)

// Machine is one simulated computer: memory + kernel + one NIC.
type Machine struct {
	K    *hostos.Kernel
	Card *nic.Card
	IV   *intravisor.Intravisor // nil on a machine of processes
}

// appAreaBytes is the part of a cVM's window below its DPDK segment: the
// compartment's own data, where the gate staging areas live (gates.go's
// layout ends under 0.4 MiB, devgate.go's per-queue buffers at 2.5 MiB).
// An application cVM's window is this and nothing else.
const appAreaBytes = 4 << 20

// segBytes is the compartment's DPDK segment size.
func (cs CompartmentSpec) segBytes() uint64 { return cmp.Or(cs.SegBytes, DefaultSegBytes) }

// homeBytes is what one home of the compartment reserves: a process's
// segment, or a cVM window of the segment plus the application area.
func (cs CompartmentSpec) homeBytes() uint64 {
	n := cs.segBytes()
	if cs.CVM {
		n += appAreaBytes
	}
	return n
}

// machineMem is the memory of a machine hosting comps: the sum,
// reservation by reservation, of what newMachine and buildEnv place on
// it — no more, so a term missing here is an ENOMEM in Build and a term
// over-counted is caught by TestBuildFitsItsMachines. The reservations
// under a hugepage (the null page, the code window) are the short lowest
// page of physical memory's hugepage grid, which ends at the top: every
// home above them is whole hugepages and starts on a boundary, with no
// padding between.
func machineMem(comps []CompartmentSpec) uint64 {
	pages := func(n uint64) uint64 { return (n + hostos.PageSize - 1) &^ (hostos.PageSize - 1) }
	mem := uint64(hostos.PageSize) // the kernel's null page
	if comps[0].CVM {
		mem += intravisor.CodeWindow
	}
	for _, cs := range comps {
		mem += pages(cs.homeBytes())
		if cs.DeviceGate {
			mem += pages(cs.homeBytes()) // the driver cVM's home
		}
		mem += uint64(len(cs.AppCVMs)) * appAreaBytes
	}
	return mem
}

// newMachine boots a machine for the compartments it will host (all
// processes or all cVMs, per Spec.validate): clk drives its NIC, arena
// backs its frames and macLast seeds the card's MAC addresses and PCI
// slot. Its memory is what comps take, its card does capability DMA iff
// they are cVMs, and cVMs get their Intravisor here.
func newMachine(clk hostos.Clock, arena *nic.FrameArena, macLast byte, ms MachineSpec, comps []CompartmentSpec) (*Machine, error) {
	// One clock per bed: a compartment reads the time its stack runs on.
	k, err := hostos.NewKernel(clk, machineMem(comps))
	if err != nil {
		return nil, err
	}
	ncfg := nic.Config{
		BDFBase:     fmt.Sprintf("0000:03:%02x", macLast),
		Ports:       ms.Ports,
		LineRateBps: cmp.Or(ms.LineRateBps, defaultLineRate),
		RxFifoBytes: ms.RxFifoBytes,
		MAC:         [6]byte{0x02, 0x82, 0x57, 0x60, 0x00, macLast},
		Clk:         clk,
		Mem:         k.Mem,
		CapDMA:      comps[0].CVM,
		Arena:       arena,
	}
	if ms.BusLimited {
		ncfg.BusRateBps, ncfg.BusCostTX, ncfg.BusCostRX = nic.DefaultBusConfig()
	}
	card, err := nic.New(ncfg)
	if err != nil {
		return nil, err
	}
	if err := card.RegisterPCI(k.PCI); err != nil {
		return nil, err
	}
	// Boot-time kernel configuration: detach every port from the kernel
	// driver so user space (DPDK) can claim it.
	for i := 0; i < ms.Ports; i++ {
		if errno := k.PCI.Unbind(card.Port(i).BDF()); errno != hostos.OK {
			return nil, fmt.Errorf("testbed: unbinding port %d: %v", i, errno)
		}
	}
	m := &Machine{K: k, Card: card}
	if comps[0].CVM {
		if m.IV, err = intravisor.New(k); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Env is one network environment — the DPDK segment, buffer pool,
// bound ports and stack of either a Baseline process or a cVM. A
// sharded environment (StackSpec.Shards > 0) carries a ShardedStack
// instead of a single Stack. Either way each of its stacks is one main
// loop, and Stacks lists them.
type Env struct {
	Name string
	CVM  *intravisor.CVM // nil for Baseline processes
	Seg  *dpdk.MemSeg
	Pool *dpdk.Mempool
	// Devs are the devices driven from inside the environment (empty
	// when the driver sits behind device gates).
	Devs []*dpdk.EthDev
	Stk  *fstack.Stack // nil when Sharded is set
	// Sharded is the multi-queue stack of a sharded environment.
	Sharded *fstack.ShardedStack

	// stacks is what Stacks returns.
	stacks []*fstack.Stack
	// drv is the builder's record of the devices the stack's queue
	// handles lead to, in IfSpec order: Devs, except that a device-gated
	// environment's driver sits in its own cVM and is not listed there.
	drv []*dpdk.EthDev
	// devGates are the sealed entry points in front of drv, device by
	// device, when the driver sits in its own cVM.
	devGates []*DevGates
	// api is the socket API the environment's gates export (APIGate).
	api stackAPI
	// k is the kernel of the machine the environment runs on.
	k *hostos.Kernel
}

// CapMode reports whether the environment runs the CHERI port.
func (e *Env) CapMode() bool { return e.Seg.CapMode() }

// NowNS reads the clock the way this environment's code must: directly
// for a Baseline process, through the Intravisor trampoline for a cVM
// ("in cVMs we can't directly access the timers of the system", §IV):
// the main-loop thread's own reading, the work booked on its core in it.
func (e *Env) NowNS() int64 {
	if e.CVM != nil {
		return e.CVM.NowNS()
	}
	s, ns, _ := e.k.Syscall(hostos.SysClockGettime, hostos.Args{hostos.ClockMonotonicRaw})
	t := int64(s)*1e9 + int64(ns)
	if e.Stk != nil {
		t = e.Stk.Core.At(t)
	}
	return t
}

// Stacks lists the environment's stacks, each one main loop: Stk, or
// every shard in shard order. Callers must not mutate the slice.
func (e *Env) Stacks() []*fstack.Stack { return e.stacks }

// baselineSeg allocates a plain kernel-memory segment for a process
// environment: accesses are raw, DMA is raw.
func (m *Machine) baselineSeg(name string, segBytes uint64) (*dpdk.MemSeg, error) {
	base, errno := m.K.Pages.Alloc(segBytes)
	if errno != hostos.OK {
		return nil, fmt.Errorf("testbed: allocating segment for %s: %v", name, errno)
	}
	return dpdk.NewMemSeg(m.K.Mem, base, segBytes, cheri.NullCap, false)
}

// cvmSeg derives a capability-checked segment in the upper part of a
// cVM's window (the lower part stays for application data).
func cvmSeg(m *Machine, cvm *intravisor.CVM, segBytes uint64) (*dpdk.MemSeg, error) {
	segBase := cvm.Base() + cvm.Size() - segBytes
	segCap, err := cvm.DDC().SetAddr(segBase).SetBounds(segBytes)
	if err != nil {
		return nil, err
	}
	return dpdk.NewMemSeg(m.K.Mem, segBase, segBytes, segCap, true)
}

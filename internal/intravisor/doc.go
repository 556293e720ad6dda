// Package intravisor implements the CAP-VM Intravisor of Sartakov et
// al. (OSDI'22) as adapted by the paper (§II-B, §III-B): a privileged
// manager that creates capability-VMs (cVMs), distributes memory
// capabilities to them, and mediates every interaction between a cVM and
// the host OS.
//
// A cVM is an isolated software component confined to a DDC window of
// the machine's memory. cVMs cannot issue host syscalls: their
// (modified musl) libc replaces each svc instruction with a trampoline
// that saves the register state, clears volatile capability registers,
// and enters the Intravisor through a sealed entry pair (CInvoke / blrs
// on Morello). The Intravisor proxy translates musl-flavoured syscalls
// to their CheriBSD equivalents and performs them: clock_gettime (Linux
// clock ids -> FreeBSD clock ids), mmap, and munmap of a range inside
// what that cVM's own mmap was handed — never another cVM's window or the
// code window. Anything else is ENOSYS, futex included: the paper's
// futex -> umtx sleep on the contended F-Stack mutex is the modelled
// sim.HandoffNS, booked at the gate (DESIGN.md §15), because a bed runs
// on one goroutine and a parked cVM would never be woken.
//
// The same mechanism implements the cross-compartment call gates used by
// Scenario 2, where an application cVM invokes F-Stack API wrappers that
// jump into the network-stack cVM.
//
// The per-crossing cost — two frame copies, register clearing, the
// sealed-pair CInvoke checks — is the overhead the paper measures at
// ~125 ns (Fig. 4). In virtual time it is a modelled constant: the
// trampoline and Gate.Call book sim's cost table on the calling (and
// called) cVM's core as they count the crossing, and a cVM's clock read
// sees what its thread has booked — what Figs. 4-6 report (DESIGN.md
// §15). What the crossing costs the host running the simulator is
// bench/'s to measure (intravisor.gate_call_ns, trampoline_ns); no report
// depends on it.
package intravisor

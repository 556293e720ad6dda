// Package hostos is a minimal CheriBSD-like host kernel substrate.
//
// The paper runs its compartmentalized stack on CheriBSD: the Intravisor
// is a host process, cVMs are its threads, and every cVM syscall is
// proxied by the Intravisor to the host kernel. This package provides the
// kernel services that data path actually touches:
//
//   - a CLOCK_MONOTONIC_RAW clock (used by the evaluation's
//     clock_gettime timing probes), read from the clock the kernel boots
//     on — its bed's virtual clock,
//   - page-granular memory reservations carved from the machine's tagged
//     memory (mmap/munmap: the Intravisor's cVM windows and the
//     hugepage-like segments DPDK allocates at boot),
//   - a PCI registry with kernel-driver unbind, which is how DPDK
//     detaches the NIC from the kernel and maps its registers into user
//     space.
//
// The kernel is deliberately small — DPDK and F-Stack run entirely in
// user space and interact with the kernel "only at boot time" (§III-B),
// so boot-time services plus the clock are the whole syscall surface:
// clock_gettime, mmap and munmap; anything else is ENOSYS. The paper's
// futex sleep on the contended F-Stack mutex (translated to umtx, §III-B)
// is not a kernel service here: it is a modelled cost, sim.HandoffNS,
// booked where a gate call takes the mutex (DESIGN.md §15), since a bed
// runs on one goroutine and has nothing to park.
package hostos

// Package dpdk is a Data Plane Development Kit analog: user-space packet
// I/O over the simulated 82576 NIC, bypassing the host kernel entirely
// after boot (§II-C of the paper).
//
// The structure follows DPDK's:
//
//   - MemSeg: a hugepage-like memory segment (granted to the process or
//     cVM at boot) from which all packet memory is carved. In capability
//     mode every access to the segment goes through a bounded capability
//     — this is the ported DPDK of the paper, whose allocations carry
//     "the correct permission flags" (§III-B).
//   - Mempool / Mbuf: fixed-size packet buffers with headroom, allocated
//     from a segment.
//   - EthDev: the ethdev API (ConfigureQueues / Start / RxBurstQ /
//     TxBurstQ / PollQ / Stats) implemented by an igb-class poll-mode
//     driver that programs the 82576 register file directly. The
//     kernel's only involvement is the one-time PCI unbind that hands
//     the device to user space.
//   - Queue: one RX/TX queue pair of an EthDev. A stack binds queue
//     handles, never a device: one handle for the paper's single-queue
//     layouts, one per shard over an RSS port.
//
// Polling mode: there are no interrupts anywhere; the burst calls
// advance the device model themselves, so whoever polls pays the cost —
// exactly the DPDK execution model the paper relies on.
package dpdk

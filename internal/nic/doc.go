// Package nic models the Intel 82576 Gigabit Ethernet controller the
// paper installs in the Morello box ("a PCI card Intel 82576 Gigabit
// Network Connection with two Ethernet ports", §III).
//
// The model is a register-level, descriptor-ring device:
//
//   - each port exposes an e1000-style MMIO register block (ring base /
//     head / tail registers, control, status, statistics) that the DPDK
//     poll-mode driver programs exactly as it would program silicon;
//   - legacy 16-byte RX/TX descriptors live in host memory; the device
//     DMAs frames between descriptor buffers and the wire;
//   - each port serializes onto a 1 Gbit/s full-duplex line, and all
//     ports of a card share one PCI bus with separate DMA-read (TX) and
//     DMA-write (RX) per-byte costs.
//
// The shared-bus model is what reproduces Table II's dual-port ceiling:
// a single port saturates its line (941 Mbit/s TCP goodput), while two
// ports running together are bus-limited to ≈66 % (RX) / ≈76 % (TX) per
// port — "the hardware limitations imposed by the PCI NIC" (§IV). The
// bus rate and the RX/TX cost factors are calibration constants
// (DefaultBusConfig) documented in DESIGN.md.
//
// DMA can run in capability mode (an IOMMU-style DMA capability bounds
// every device access to the DPDK memory region it was granted) or raw
// mode (Baseline). Frames travel over a Wire that connects two ports
// back to back with a fixed propagation delay.
//
// The device is interrupt-less: Step drains rings when called, and the
// DPDK PMD calls it from rx_burst/tx_burst — polling mode, as DPDK does.
// For the event-driven virtual clock each port also answers deadline
// queries, per queue pair (Port.QueueDeadline): when could that queue
// next act — its FIFO head becoming harvestable, its pending TX
// descriptor becoming admissible — or the attached conduit release a
// frame toward this port. A frame thus wakes only the loop that will
// harvest it; Port.NextDeadline is the earliest of the queues' answers.
// Frame buffers crossing a conduit come from a free-list arena
// (arena.go) whose ownership rules are documented there and in
// DESIGN.md §8.
//
// The legacy descriptor's transport checksum offload is modelled
// without running the engine (offload.go): a TX descriptor with CMD.IC
// sends its frame tagged with the sum it owes (PendingSum), the far
// port reports a tagged frame's checksum good (RX status TCPCS), and
// the sum is filled into the bytes only where something reads them —
// an RX tap, or a conduit delivering to anything but a port. DESIGN.md
// §8 has the model.
//
// Beyond the paper's single-queue setup, each port carries up to
// MaxQueues RX/TX queue pairs with receive-side scaling: a symmetric
// Toeplitz hash over the flow tuple indexes a 128-entry redirection
// table that picks the RX queue (rss.go); queue 0 receives all non-IP
// traffic. This is the hardware half of the sharded-stack scaling
// scenario (DESIGN.md §3).
package nic

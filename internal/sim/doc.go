// Package sim provides the timing machinery for the simulated hardware:
// a virtual clock for deterministic, host-speed-independent experiments,
// and byte-time serializers (token buckets) that impose link and bus
// rates on the simulated NIC.
//
// Bandwidth experiments (paper Table II) run the whole machine pair in
// virtual time: a single driver thread steps the poll-mode loops on a
// fixed 5 µs grid, so the achieved throughput depends only on the
// modelled rates (1 Gbit/s links, shared PCI bus), never on host CPU
// speed. The driver is event-driven: when every component reports its
// next deadline (Serializer.NextAdmitAt here; FIFO heads, delay lines
// and TCP timers elsewhere) beyond the next grid point, the clock
// leaps straight to the grid point containing that deadline — skipped
// iterations are provably no-ops, so behavior is bit-identical to
// stepping every tick (DESIGN.md §8). Latency experiments (Figs. 4-6)
// run on the same clock and driver: what a timed ff_write reads is the
// virtual time its thread booked for the crossings, copies and lock
// waits on the way, from the cost table in cost.go (DESIGN.md §15).
package sim

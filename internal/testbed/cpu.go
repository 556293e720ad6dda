package testbed

import (
	"repro/internal/dpdk"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// cpuDev models one core's packet-processing budget in front of a
// shard's queue pair: every frame byte moved in or out of the stack is
// booked on the core at its budget, and when the core is booked out the
// burst returns empty — ring backpressure, exactly how an overloaded
// poll loop behaves. The core is the shard's thread, whose every other
// booking (frame holds, writes, crossings) counts against the same budget.
// (The wire and the bus are modeled elsewhere; a sharded environment
// needs the core to be the bottleneck, or shard counts could not matter.)
type cpuDev struct {
	dev    fstack.EthDevice
	clk    hostos.Clock
	cpu    *sim.Core
	bps    float64 // the core's budget, bits/s
	window int64   // cpuWindow(bps)
}

func newCPUDev(dev fstack.EthDevice, clk hostos.Clock, cpu *sim.Core, bps float64) cpuDev {
	return cpuDev{dev: dev, clk: clk, cpu: cpu, bps: bps, window: cpuWindow(bps)}
}

// cpuChunk bounds how many frames are harvested per admission check,
// keeping the overshoot past the booking window small (a booked-out
// core must come back quickly — the stack's ACKs ride the same budget,
// and coarse gating would drop them for hundreds of µs at a time).
const cpuChunk = 4

// cpuWindow is how far ahead a core may be booked: three full-size
// frame times at its budget, like the NIC's line and bus shares.
func cpuWindow(cpuBps float64) int64 {
	return int64(3 * 1538 * 8e9 / cpuBps)
}

func (d cpuDev) RxBurst(out []*dpdk.Mbuf) int {
	now := d.clk.Now()
	total := 0
	for total < len(out) && d.cpu.Admits(now, d.window) {
		k := min(cpuChunk, len(out)-total)
		n := d.dev.RxBurst(out[total : total+k])
		for i := 0; i < n; i++ {
			d.cpu.Book(now, sim.BytesNS(out[total+i].Len(), d.bps))
		}
		total += n
		if n < k {
			break
		}
	}
	return total
}

// TxBurst charges the core for every byte it transmits but never
// refuses on CPU grounds: by the time the stack hands a frame over, the
// work has been done, and the TX descriptor ring — not a dropped frame
// — is where a busy core's output waits. (Refusing here would silently
// discard bare ACKs, which have no retransmit path; the throttle on the
// send side is that every booked byte delays the core's own RX
// processing, inflating the flow's RTT against its window.)
func (d cpuDev) TxBurst(bufs []*dpdk.Mbuf) int {
	// Capture lengths first: accepted mbufs pass to the driver and may
	// be recycled before we charge for them. A burst past the array is
	// cut short, which the burst contract allows (the stack sends one
	// frame at a time).
	var lens [32]int
	bufs = bufs[:min(len(bufs), len(lens))]
	for i, m := range bufs {
		lens[i] = m.Len()
	}
	n := d.dev.TxBurst(bufs)
	now := d.clk.Now()
	for i := 0; i < n; i++ {
		d.cpu.Book(now, sim.BytesNS(lens[i], d.bps))
	}
	return n
}

func (d cpuDev) Poll()        { d.dev.Poll() }
func (d cpuDev) MAC() [6]byte { return d.dev.MAC() }

// NextDeadline passes the inner device's deadline through unchanged: a
// booked-out core only delays RX work the device already reports, and
// an early wake-up is a no-op iteration, never a missed event. (The
// booking window is a few frame times, so the tick fallback while the
// core is saturated costs little.)
func (d cpuDev) NextDeadline(now int64) int64 { return d.dev.NextDeadline(now) }

package nic

import (
	"fmt"
	"math"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// Config describes one NIC card.
type Config struct {
	// BDFBase is the PCI bus/device prefix; port i becomes "<BDFBase>.i".
	BDFBase string
	// Ports is the number of Ethernet ports (the 82576 has two).
	Ports int
	// LineRateBps is the per-port line rate in bits per second.
	LineRateBps float64
	// BusRateBps is the shared PCI bus budget in cost-bits per second.
	// See DESIGN.md for the calibration; <= 0 means an ideal bus (used
	// for the remote link-partner machine).
	BusRateBps float64
	// BusCostTX and BusCostRX scale the per-byte bus cost of DMA reads
	// (transmit) and DMA writes (receive). RX costs more per byte on
	// this card — descriptor write-back plus allocation traffic — which
	// is what splits Table II's 658 (RX) from 757 (TX).
	BusCostTX, BusCostRX float64
	// RxFifoBytes sizes each RX queue's slice of the receive packet
	// buffer; <= 0 means the 82576's 64 KiB. Faster parts carry larger
	// buffers (the scaling scenario models a multi-gigabit port with
	// 512 KiB per queue).
	RxFifoBytes int
	// MAC is the base hardware address; port i gets MAC with the last
	// octet incremented by i.
	MAC [6]byte
	// Clk paces the serializers (virtual in bandwidth runs, real in
	// latency runs).
	Clk hostos.Clock
	// Mem is the host memory the device DMAs into.
	Mem *cheri.TMem
	// CapDMA routes every DMA access through the port's DMA capability
	// (IOMMU-style); raw otherwise.
	CapDMA bool
	// Arena supplies the wire-frame buffers the ports transmit and
	// receive (nil = the package default). A testbed gives every
	// machine and link of one bed the same private arena so concurrent
	// beds never share pool state.
	Arena *FrameArena
}

// DefaultBusConfig returns the calibrated 82576 bus parameters.
// Calibration (DESIGN.md): cTX=1.0, cRX=1.16, B=1.66 Gbit/s reproduces
// the paper's dual-port ceiling (≈757 Mbit/s TX, ≈658 Mbit/s RX per
// port) while leaving single-port traffic line-limited.
func DefaultBusConfig() (busRateBps, costTX, costRX float64) {
	return 1.66e9, 1.0, 1.16
}

// serializerWindow is how far ahead the line/bus may be booked: a couple
// of full-size frame times (the device FIFO the serializer stands for).
const serializerWindow = 3 * 12304 // ns at 1 Gbit/s

// busActivityWindow is how long after its last DMA a port counts as an
// active bus user for the fair-share arbiter.
const busActivityWindow = 1e6 // 1 ms

// Card is one physical NIC: up to several ports sharing one PCI bus.
//
// Bus model: PCIe arbitration is round-robin per transaction; at the
// timescales of interest that is indistinguishable from an equal split
// of the bus budget among the ports with outstanding DMA. The card
// therefore gives each port a private serializer and re-divides the
// total budget B among the currently active ports (full B when one port
// works alone) — a work-conserving fair share that cannot be gamed by
// polling order.
type Card struct {
	cfg   Config
	ports []*Port

	busShare []*sim.Serializer // per-port slice of the bus; nil = ideal
	busUse   []int64           // last admission attempt per port
	busAct   int               // ports currently counted active
}

// New builds a card and registers nothing: call RegisterPCI to make its
// functions visible to the host kernel.
func New(cfg Config) (*Card, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("nic: card needs at least one port")
	}
	if cfg.LineRateBps <= 0 {
		return nil, fmt.Errorf("nic: line rate must be positive")
	}
	if cfg.Clk == nil || cfg.Mem == nil {
		return nil, fmt.Errorf("nic: clock and memory are required")
	}
	c := &Card{cfg: cfg}
	if cfg.BusRateBps > 0 {
		c.busShare = make([]*sim.Serializer, cfg.Ports)
		c.busUse = make([]int64, cfg.Ports)
		c.busAct = 1
		for i := 0; i < cfg.Ports; i++ {
			c.busShare[i] = sim.NewSerializer(cfg.Clk, cfg.BusRateBps, serializerWindow)
			c.busUse[i] = -2 * busActivityWindow
		}
	}
	arena := cfg.Arena
	if arena == nil {
		arena = defaultArena
	}
	for i := 0; i < cfg.Ports; i++ {
		mac := cfg.MAC
		mac[5] += byte(i)
		p := &Port{
			card:  c,
			idx:   i,
			bdf:   fmt.Sprintf("%s.%d", cfg.BDFBase, i),
			mac:   mac,
			clk:   cfg.Clk,
			mem:   cfg.Mem,
			arena: arena,
			line:  sim.NewSerializer(cfg.Clk, cfg.LineRateBps, serializerWindow),
		}
		// Every RX queue gets a full packet-buffer slice; with RSS off
		// only queue 0 is used and the buffering matches the old
		// single-FIFO model exactly.
		fifoBytes := cfg.RxFifoBytes
		if fifoBytes <= 0 {
			fifoBytes = RxFifoBytes
		}
		for q := range p.fifos {
			p.fifos[q].limit = fifoBytes
			p.fifos[q].arena = arena
		}
		p.capDMA = cfg.CapDMA
		c.ports = append(c.ports, p)
	}
	return c, nil
}

// Port returns port i.
func (c *Card) Port(i int) *Port { return c.ports[i] }

// Ports returns the number of ports.
func (c *Card) Ports() int { return len(c.ports) }

// RegisterPCI registers every port as a PCI function with the host.
func (c *Card) RegisterPCI(pci *hostos.PCI) error {
	for _, p := range c.ports {
		if err := pci.Register(p); err != nil {
			return err
		}
	}
	return nil
}

// busTouch records port activity and rebalances the per-port shares
// when the active set changes. It returns the port's serializer.
func (c *Card) busTouch(port int) *sim.Serializer {
	now := c.cfg.Clk.Now()
	c.busUse[port] = now
	active := 0
	for _, last := range c.busUse {
		if now-last < busActivityWindow {
			active++
		}
	}
	if active < 1 {
		active = 1
	}
	if active != c.busAct {
		c.busAct = active
		rate := c.cfg.BusRateBps / float64(active)
		for _, s := range c.busShare {
			s.SetRate(rate)
		}
	}
	return c.busShare[port]
}

// busAdmit books a DMA transfer of costBytes (already scaled) for the
// given port; ideal buses always admit.
func (c *Card) busAdmit(port, costBytes int) bool {
	if c.busShare == nil {
		return true
	}
	_, ok := c.busTouch(port).Admit(costBytes)
	return ok
}

// busCanAdmit reports whether the port's bus share has window room.
func (c *Card) busCanAdmit(port int) bool {
	if c.busShare == nil {
		return true
	}
	return c.busTouch(port).CanAdmit()
}

// busLimited reports whether the card models a finite PCI bus.
func (c *Card) busLimited() bool { return c.busShare != nil }

// busNextAdmitAt reports when the port's bus share could next admit a
// transfer, WITHOUT recording activity: deadline queries are simulator
// introspection, and touching the arbiter from them would perturb the
// active-set accounting the tick-stepped reference driver produces.
func (c *Card) busNextAdmitAt(port int, now int64) int64 {
	if c.busShare == nil {
		return now
	}
	return c.busShare[port].NextAdmitAt(now)
}

// busPollBy reports the instant by which the port must have polled the
// arbiter again to stay in the active set the way a port stepped every
// tick does: half an activity window past its last touch, so never
// later than now + busActivityWindow/2. math.MaxInt64 on an ideal bus,
// which has no arbiter. Side-effect free, like busNextAdmitAt.
func (c *Card) busPollBy(port int) int64 {
	if c.busShare == nil {
		return math.MaxInt64
	}
	return c.busUse[port] + busActivityWindow/2
}

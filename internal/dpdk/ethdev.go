package dpdk

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hostos"
	"repro/internal/nic"
	"repro/internal/obs"
)

// steppable is the "hardware runs" hook of the simulated device; the
// poll-mode driver advances the device from its own burst calls.
type steppable interface{ Step() }

// Stats mirrors rte_eth_stats.
type Stats struct {
	IPackets uint64 // received packets
	OPackets uint64 // transmitted packets
	IBytes   uint64 // received bytes
	OBytes   uint64 // transmitted bytes
	IMissed  uint64 // RX drops at the device (ring/FIFO full)
}

// rxQueue is one RX descriptor ring and its software state.
type rxQueue struct {
	base  uint64
	n     uint32
	mbufs []*Mbuf
	next  uint32 // next descriptor to harvest
	tail  uint32 // software copy of RDT
}

// txQueue is one TX descriptor ring and its software state.
type txQueue struct {
	base    uint64
	n       uint32
	mbufs   []*Mbuf
	next    uint32 // next descriptor to program
	reclaim uint32 // next descriptor to reclaim
	free    uint32 // free descriptors
}

// EthDev is one bound Ethernet port driven in user space (rte_ethdev +
// igb PMD in one type). It exposes up to nic.MaxQueues RX/TX queue
// pairs; a stack binds one pair through its Queue handle.
type EthDev struct {
	dev  hostos.PCIDevice
	step func()
	seg  *MemSeg
	pool *Mempool
	mac  [6]byte

	// queueDeadline is the device's per-queue deadline hook, resolved
	// once in Probe.
	queueDeadline func(q int, now int64) int64

	rxqs []rxQueue
	txqs []txQueue

	rssTab [12][256]uint32 // the programmed key's byte table (nic.RSSHashTuple)
	reta   [nic.RetaEntries]byte
	rssOn  bool

	configured bool
	started    bool

	// Flight-recorder hooks (nil = observability off, zero cost). The
	// device has no clock of its own, so the wiring supplies one.
	obsTr  *obs.Trace
	obsNow func() int64
	obsSrc uint16
}

// SetObs attaches a flight recorder to the driver's burst paths. now
// supplies virtual time (the device itself is clockless); src tags the
// emitted events with this device's identity. Call before traffic.
func (d *EthDev) SetObs(tr *obs.Trace, now func() int64, src uint16) {
	d.obsTr, d.obsNow, d.obsSrc = tr, now, src
}

// Probe claims the unbound PCI device at bdf and wraps it in an EthDev
// using seg for all descriptor and packet memory.
func Probe(pci *hostos.PCI, bdf string, seg *MemSeg) (*EthDev, error) {
	dev, errno := pci.Claim(bdf)
	if errno != hostos.OK {
		return nil, fmt.Errorf("dpdk: claiming %s: %v (unbind the kernel driver first)", bdf, errno)
	}
	if dev.VendorID() != 0x8086 || dev.DeviceID() != 0x10C9 {
		return nil, fmt.Errorf("dpdk: %s is %04x:%04x, not an 82576", bdf, dev.VendorID(), dev.DeviceID())
	}
	st, ok := dev.(steppable)
	if !ok {
		return nil, fmt.Errorf("dpdk: device %s cannot be polled", bdf)
	}
	d := &EthDev{dev: dev, step: st.Step, seg: seg}
	// A device without the hook (hostos.PCIDevice is a foreign interface
	// we cannot extend here) reports "work now", which disables leaping
	// over it entirely — slower, never wrong. Silence in the other
	// direction (MaxInt64) would let the driver skip frames it holds.
	d.queueDeadline = func(_ int, now int64) int64 { return now }
	if qd, ok := dev.(interface{ QueueDeadline(q int, now int64) int64 }); ok {
		d.queueDeadline = qd.QueueDeadline
	}
	ral := dev.RegRead32(nic.RegRAL0)
	rah := dev.RegRead32(nic.RegRAH0)
	d.mac = [6]byte{byte(ral), byte(ral >> 8), byte(ral >> 16), byte(ral >> 24), byte(rah), byte(rah >> 8)}
	// In capability-DMA mode, grant the device its IOMMU window over the
	// segment.
	if p, ok := dev.(*nic.Port); ok && seg.CapMode() {
		p.SetDMACap(seg.Cap())
	}
	return d, nil
}

// MAC returns the port's hardware address.
func (d *EthDev) MAC() [6]byte { return d.mac }

// faultInjector is the optional fault-injection surface of the bound
// device (nic.Port implements it); the fault plane reaches hardware
// faults through the driver so app code never touches a raw port.
type faultInjector interface {
	SetQueueStall(q int, stalled bool)
	InjectDMAFaults(n int64)
}

// SetQueueStall freezes or thaws one of the bound device's queue
// pairs; reports false when the device has no fault surface.
func (d *EthDev) SetQueueStall(q int, stalled bool) bool {
	fi, ok := d.dev.(faultInjector)
	if ok {
		fi.SetQueueStall(q, stalled)
	}
	return ok
}

// InjectDMAFaults arms a burst of n DMA master aborts on the bound
// device; reports false when the device has no fault surface.
func (d *EthDev) InjectDMAFaults(n int64) bool {
	fi, ok := d.dev.(faultInjector)
	if ok {
		fi.InjectDMAFaults(n)
	}
	return ok
}

// ConfigureQueues allocates nq RX/TX queue pairs of nrx/ntx descriptors
// each from the segment and programs the device's per-queue register
// banks; pool supplies RX buffers. With nq > 1,
// Start additionally programs the RSS engine (symmetric Toeplitz key +
// identity redirection table) so inbound flows spread over the queues.
func (d *EthDev) ConfigureQueues(nq int, nrx, ntx uint32, pool *Mempool) error {
	if d.configured {
		return fmt.Errorf("dpdk: device already configured")
	}
	if nq < 1 || nq > nic.MaxQueues {
		return fmt.Errorf("dpdk: queue count %d outside 1..%d", nq, nic.MaxQueues)
	}
	if nrx < 8 || ntx < 8 {
		return fmt.Errorf("dpdk: ring sizes %d/%d too small", nrx, ntx)
	}
	d.pool = pool
	d.rxqs = make([]rxQueue, nq)
	d.txqs = make([]txQueue, nq)
	for q := 0; q < nq; q++ {
		rxBase, err := d.seg.Alloc(uint64(nrx)*nic.DescSize, 128)
		if err != nil {
			return err
		}
		txBase, err := d.seg.Alloc(uint64(ntx)*nic.DescSize, 128)
		if err != nil {
			return err
		}
		d.rxqs[q] = rxQueue{base: rxBase, n: nrx, mbufs: make([]*Mbuf, nrx)}
		d.txqs[q] = txQueue{base: txBase, n: ntx, mbufs: make([]*Mbuf, ntx), free: ntx - 1}

		d.dev.RegWrite32(nic.RegRDBALQ(q), uint32(rxBase))
		d.dev.RegWrite32(nic.RegRDBAHQ(q), uint32(rxBase>>32))
		d.dev.RegWrite32(nic.RegRDLENQ(q), nrx*nic.DescSize)
		d.dev.RegWrite32(nic.RegRDHQ(q), 0)
		d.dev.RegWrite32(nic.RegRDTQ(q), 0)
		d.dev.RegWrite32(nic.RegTDBALQ(q), uint32(txBase))
		d.dev.RegWrite32(nic.RegTDBAHQ(q), uint32(txBase>>32))
		d.dev.RegWrite32(nic.RegTDLENQ(q), ntx*nic.DescSize)
		d.dev.RegWrite32(nic.RegTDHQ(q), 0)
		d.dev.RegWrite32(nic.RegTDTQ(q), 0)
	}
	d.configured = true
	return nil
}

// NumRxQueues reports the configured queue-pair count.
func (d *EthDev) NumRxQueues() int { return len(d.rxqs) }

// writeDesc programs one descriptor (through the segment, so it is a
// checked store in capability mode): an RX buffer to fill (cmd, cso and
// css zero) or a frame to send, whose checksum the device inserts at
// cso, summing from css, when cmd carries TxCmdIC.
func (d *EthDev) writeDesc(descAddr, bufAddr uint64, length uint16, cmd, cso, css byte) error {
	s, err := d.seg.Slice(descAddr, nic.DescSize)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(s[0:8], bufAddr)
	binary.LittleEndian.PutUint16(s[8:10], length)
	s[nic.TxDescCSO] = cso
	s[11] = cmd
	s[12] = 0 // status
	s[nic.TxDescCSS] = css
	binary.LittleEndian.PutUint16(s[14:16], 0)
	return nil
}

// descStatus reads a descriptor's status byte, its errors byte (RX;
// CSS on a TX descriptor) and its length.
func (d *EthDev) descStatus(descAddr uint64) (status, errs byte, length uint16, err error) {
	s, err := d.seg.SliceRO(descAddr, nic.DescSize)
	if err != nil {
		return 0, 0, 0, err
	}
	return s[12], s[13], binary.LittleEndian.Uint16(s[8:10]), nil
}

// l4SumOffsets locates the checksum an offloading frame owes: CSS, where
// its TCP or UDP header starts, and CSO, where that header's checksum
// field sits — what a DPDK application states beside the flag as
// l2_len, l3_len and the L4 type, read here from the Ethernet and IPv4
// headers. ok is false for any other frame, which goes out as built.
func l4SumOffsets(frame []byte) (css, cso byte, ok bool) {
	const ipOff = 14 // Ethernet header
	if len(frame) < ipOff+20 || binary.BigEndian.Uint16(frame[12:]) != 0x0800 {
		return 0, 0, false
	}
	l4 := ipOff + int(frame[ipOff]&0x0F)*4
	var field int
	switch frame[ipOff+9] {
	case 6: // TCP
		field = l4 + 16
	case 17: // UDP
		field = l4 + 6
	default:
		return 0, 0, false
	}
	if field+2 > len(frame) {
		return 0, 0, false
	}
	return byte(l4), byte(field), true
}

// programRSS installs the Toeplitz key, an identity-modulo redirection
// table over the configured queues, and enables the engine (the hash
// itself is flow-symmetric via canonical endpoint ordering).
func (d *EthDev) programRSS() {
	nq := len(d.rxqs)
	key := nic.DefaultRSSKey()
	for i := 0; i < nic.RSSKeyLen; i += 4 {
		d.dev.RegWrite32(nic.RegRSSRK+uint64(i), binary.LittleEndian.Uint32(key[i:i+4]))
	}
	// The steering oracle's table, entry by entry from the specification:
	// byte b at input offset i hashes as b alone under the key shifted i
	// bytes. (The device builds its own; the two must agree on every
	// tuple.)
	for i := range d.rssTab {
		for b := range d.rssTab[i] {
			d.rssTab[i][b] = nic.ToeplitzHash(key[i:], []byte{byte(b)})
		}
	}
	for i := range d.reta {
		d.reta[i] = byte(i % nq)
	}
	for i := 0; i < nic.RetaEntries; i += 4 {
		d.dev.RegWrite32(nic.RegRETA+uint64(i), binary.LittleEndian.Uint32(d.reta[i:i+4]))
	}
	d.dev.RegWrite32(nic.RegMRQC, nic.MRQCEnable|uint32(nq)<<nic.MRQCQueueShift)
	d.rssOn = true
}

// Start posts every RX ring and enables the device. Multi-queue
// configurations also get the RSS engine programmed here.
func (d *EthDev) Start() error {
	if !d.configured {
		return fmt.Errorf("dpdk: start before configure")
	}
	if d.started {
		return fmt.Errorf("dpdk: device already started")
	}
	for q := range d.rxqs {
		rq := &d.rxqs[q]
		// Post a buffer in EVERY slot; RDT=n-1 leaves a one-descriptor
		// gap for the hardware's full/empty disambiguation. The gap slot
		// still holds a valid buffer, so the window can slide over it
		// safely.
		for i := uint32(0); i < rq.n; i++ {
			m, ok := d.pool.Get()
			if !ok {
				return fmt.Errorf("dpdk: pool %q exhausted while filling RX ring %d", d.pool.Name(), q)
			}
			rq.mbufs[i] = m
			if err := d.writeDesc(rq.base+uint64(i)*nic.DescSize, m.DataAddr(), 0, 0, 0, 0); err != nil {
				return err
			}
		}
		rq.tail = rq.n - 1
		d.dev.RegWrite32(nic.RegRDTQ(q), rq.tail)
	}
	if len(d.rxqs) > 1 {
		d.programRSS()
	}
	d.dev.RegWrite32(nic.RegRCTL, nic.RctlEN)
	d.dev.RegWrite32(nic.RegTCTL, nic.TctlEN)
	d.started = true
	return nil
}

// RxBurstQ polls the device and harvests up to len(out) received frames
// from queue q. Each returned mbuf's payload is the raw Ethernet frame,
// flagged (L4Sum) when the device found its transport checksum good.
func (d *EthDev) RxBurstQ(q int, out []*Mbuf) int {
	if !d.started || q >= len(d.rxqs) {
		return 0
	}
	d.step()
	rq := &d.rxqs[q]
	n := 0
	for n < len(out) {
		descAddr := rq.base + uint64(rq.next)*nic.DescSize
		status, errs, length, err := d.descStatus(descAddr)
		if err != nil || status&nic.StatDD == 0 {
			break
		}
		// Refill first: if the pool is dry, stop harvesting (the frame
		// stays until a buffer is available).
		repl, ok := d.pool.Get()
		if !ok {
			break
		}
		m := rq.mbufs[rq.next]
		m.off = MbufHeadroom
		m.l4sum = status&nic.RxStatTCPCS != 0 && errs&nic.RxErrTCPE == 0
		if err := m.SetLen(int(length)); err != nil {
			// Oversized: drop.
			repl.Free()
			m.reset()
			repl = m
		}

		rq.mbufs[rq.next] = repl
		if err := d.writeDesc(descAddr, repl.DataAddr(), 0, 0, 0, 0); err != nil {
			break
		}
		if m != repl {
			out[n] = m
			n++
		}
		rq.next = (rq.next + 1) % rq.n
		rq.tail = (rq.tail + 1) % rq.n
		d.dev.RegWrite32(nic.RegRDTQ(q), rq.tail)
	}
	if n > 0 && d.obsTr != nil {
		d.obsTr.Record(d.obsNow(), obs.EvDevRxBurst, d.obsSrc, int64(n), 0, int64(q))
	}
	return n
}

// reclaimTX frees mbufs whose descriptors the device completed on
// queue q.
func (d *EthDev) reclaimTX(q int) {
	tq := &d.txqs[q]
	for tq.free < tq.n-1 {
		descAddr := tq.base + uint64(tq.reclaim)*nic.DescSize
		status, _, _, err := d.descStatus(descAddr)
		if err != nil || status&nic.StatDD == 0 {
			return
		}
		if m := tq.mbufs[tq.reclaim]; m != nil {
			m.Free()
			tq.mbufs[tq.reclaim] = nil
		}
		tq.reclaim = (tq.reclaim + 1) % tq.n
		tq.free++
	}
}

// TxBurstQ enqueues up to len(bufs) frames on queue q and returns how
// many were accepted; ownership of accepted mbufs passes to the driver
// (they return to the pool after the device sends them). A flagged
// mbuf's descriptor asks the device to insert its transport checksum
// (CMD.IC with CSS and CSO).
func (d *EthDev) TxBurstQ(q int, bufs []*Mbuf) int {
	if !d.started || q >= len(d.txqs) {
		return 0
	}
	d.step() // push earlier frames, complete descriptors
	d.reclaimTX(q)
	tq := &d.txqs[q]
	n := 0
	for _, m := range bufs {
		if tq.free == 0 {
			break
		}
		descAddr := tq.base + uint64(tq.next)*nic.DescSize
		cmd, cso, css := byte(nic.TxCmdEOP|nic.TxCmdRS), byte(0), byte(0)
		if m.l4sum {
			if frame, err := m.BytesRO(); err == nil {
				var ok bool
				if css, cso, ok = l4SumOffsets(frame); ok {
					cmd |= nic.TxCmdIC
				}
			}
		}
		if err := d.writeDesc(descAddr, m.DataAddr(), uint16(m.Len()), cmd, cso, css); err != nil {
			break
		}
		tq.mbufs[tq.next] = m
		tq.next = (tq.next + 1) % tq.n
		tq.free--
		n++
	}
	if n > 0 {
		d.dev.RegWrite32(nic.RegTDTQ(q), tq.next)
		d.step()
		if d.obsTr != nil {
			d.obsTr.Record(d.obsNow(), obs.EvDevTxBurst, d.obsSrc, int64(n), 0, int64(q))
		}
	}
	return n
}

// PollQ advances the device without transferring mbufs (keeps TX
// draining while the application is idle) and reclaims queue q's
// completed transmissions only, so shards do not touch each other's
// software ring state.
func (d *EthDev) PollQ(q int) {
	if !d.started || q >= len(d.txqs) {
		return
	}
	d.step()
	d.reclaimTX(q)
}

// NextDeadline reports the earliest virtual instant the device as a
// whole could make progress: immediately when any queue holds a received
// frame the driver has not harvested, otherwise whenever the underlying
// port next has work. No stack asks it — each asks its own Queue handle —
// so it is the reference the handles are held to: the earliest of their
// answers is this one.
func (d *EthDev) NextDeadline(now int64) int64 {
	if !d.started {
		return math.MaxInt64
	}
	for q := range d.rxqs {
		if d.rxReady(q) {
			return now
		}
	}
	if dl, ok := d.dev.(interface{ NextDeadline(now int64) int64 }); ok {
		return dl.NextDeadline(now)
	}
	return now // unknown device: see Probe
}

// rxReady reports whether queue q's next RX descriptor already holds a
// frame the driver has not harvested.
func (d *EthDev) rxReady(q int) bool {
	rq := &d.rxqs[q]
	status, _, _, err := d.descStatus(rq.base + uint64(rq.next)*nic.DescSize)
	return err == nil && status&nic.StatDD != 0
}

// Stats reads the device counters (whole-port aggregates).
func (d *EthDev) Stats() Stats {
	return Stats{
		IPackets: uint64(d.dev.RegRead32(nic.RegGPRC)),
		OPackets: uint64(d.dev.RegRead32(nic.RegGPTC)),
		IBytes:   uint64(d.dev.RegRead32(nic.RegGORCL)) | uint64(d.dev.RegRead32(nic.RegGORCH))<<32,
		OBytes:   uint64(d.dev.RegRead32(nic.RegGOTCL)) | uint64(d.dev.RegRead32(nic.RegGOTCH))<<32,
		IMissed:  uint64(d.dev.RegRead32(nic.RegMPC)),
	}
}

// Queue is one RX/TX queue pair of a device — the thing a stack binds
// (it satisfies fstack.EthDevice). The burst calls are the device's own
// RxBurstQ/TxBurstQ/PollQ with the queue filled in.
type Queue struct {
	d *EthDev
	q int
}

// Queue returns the handle of queue pair q.
func (d *EthDev) Queue(q int) Queue { return Queue{d: d, q: q} }

func (h Queue) RxBurst(out []*Mbuf) int  { return h.d.RxBurstQ(h.q, out) }
func (h Queue) TxBurst(bufs []*Mbuf) int { return h.d.TxBurstQ(h.q, bufs) }
func (h Queue) Poll()                    { h.d.PollQ(h.q) }
func (h Queue) MAC() [6]byte             { return h.d.mac }

// NextDeadline reports the earliest virtual instant this queue pair's
// owner could make progress: immediately when a received frame already
// sits in its next RX descriptor, otherwise whenever the port next has
// work of this queue's (nic.Port.QueueDeadline) — another queue's frame
// is another loop's to harvest and does not wake this one. An index the
// burst calls would refuse can never be due. The event-driven driver
// leaps the clock over the iterations these answers prove empty.
func (h Queue) NextDeadline(now int64) int64 {
	if !h.d.started || h.q >= len(h.d.rxqs) {
		return math.MaxInt64
	}
	if h.d.rxReady(h.q) {
		return now // harvestable frame waiting in the ring
	}
	return h.d.queueDeadline(h.q, now)
}

// RxQueueOf reports which RX queue the device's RSS classifier would
// select for an inbound IPv4 packet with the given flow tuple — the
// steering oracle a sharded stack uses to place locally initiated
// connections on the shard their return traffic will reach.
func (d *EthDev) RxQueueOf(src, dst [4]byte, proto byte, sport, dport uint16) int {
	if !d.rssOn {
		return 0
	}
	h := nic.RSSHashTuple(&d.rssTab, src, dst, proto, sport, dport)
	q := int(d.reta[h&(nic.RetaEntries-1)])
	if q >= len(d.rxqs) {
		return 0
	}
	return q
}

package nic

import (
	"encoding/binary"
	"math"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// wireOverhead is the per-frame on-the-wire overhead beyond the frame
// bytes handed to the device: preamble+SFD (8) + FCS (4) + inter-frame
// gap (12). With 1538 wire bytes per 1448-byte TCP payload this yields
// the canonical 941 Mbit/s GbE goodput ceiling.
const wireOverhead = 24

// maxBurst bounds ring processing per Step call (per queue).
const maxBurst = 64

// maxFrame is the largest frame the device accepts (MTU 1500 plus
// Ethernet header; no jumbo support, like the paper's setup).
const maxFrame = 1514

// Port is one Ethernet port (one PCI function) of a card. It implements
// hostos.PCIDevice.
type Port struct {
	card  *Card
	idx   int
	bdf   string
	mac   [6]byte
	clk   hostos.Clock
	mem   *cheri.TMem
	arena *FrameArena
	line  sim.Core // booked at the card's LineRateBps

	// fifos are the per-RX-queue slices of the receive packet buffer;
	// the RSS classifier picks one per arriving frame (queue 0 when RSS
	// is off, so the single-queue model is unchanged).
	fifos [MaxQueues]rxFifo

	pipe    Conduit
	pipeEnd int

	capDMA bool
	dmaCap cheri.Cap

	regs portRegs
	// nq bounds every per-queue walk: queues nq and above have no
	// descriptor ring programmed in either direction, so there is nothing
	// of theirs to step. Recomputed on a queue LEN write and on CTRL.RST,
	// the only events that program or clear a ring.
	nq int
	// rssTab is regs.rssKey's byte table (buildRSSTable): rebuilt on every
	// RSSRK write and zeroed with the key on CTRL.RST.
	rssTab [12][256]uint32

	// Fault injection (the Scenario 10 fault plane). stalled queues are
	// skipped by Step and excluded from QueueDeadline; dmaFaults budgets
	// injected DMA failures consumed by dmaRO/dmaRW.
	stalled    [MaxQueues]bool
	dmaFaults  int64
	dmaFaulted uint64

	// statistics
	gprc, gptc uint64 // good packets
	gorc, gotc uint64 // good octets

	// observability sinks (nil = off; see internal/obs). Every hook below
	// nil-checks its sink, so a port without observability runs the exact
	// datapath it always has.
	obs   portObs
	rxTap func(tsNS int64, data []byte)
}

// portObs is the port's flight recorder, datapath-latency histogram and
// trace source id.
type portObs struct {
	tr  *obs.Trace
	dp  *stats.Histogram
	src uint16
}

// queueRegs is one RX or TX queue's descriptor-ring register bank.
type queueRegs struct {
	bal, bah, length, head, tail uint32
}

// ring is a snapshot of one descriptor ring that the device can move; a
// queue step works from it and writes only the advanced head back.
type ring struct {
	base       uint64
	n          uint32 // descriptors in the ring; 0 = nothing to do
	head, tail uint32
}

// movable snapshots the ring if the device can advance it: armed and
// head != tail (TX: descriptors pending; RX: descriptors free). Stepping
// any other ring would touch nothing, so it gets the zero ring (n == 0).
func (qr *queueRegs) movable() ring {
	if qr.length < DescSize || qr.head == qr.tail {
		return ring{}
	}
	return ring{base: uint64(qr.bal) | uint64(qr.bah)<<32, n: qr.length / DescSize, head: qr.head, tail: qr.tail}
}

// portRegs is the software-visible register file.
type portRegs struct {
	ctrl, status uint32
	rctl, tctl   uint32

	rxq [MaxQueues]queueRegs
	txq [MaxQueues]queueRegs

	mrqc   uint32
	reta   [RetaEntries]byte
	rssKey [RSSKeyLen]byte
}

// Attach connects the port to one endpoint of a conduit and raises
// link-up. nic.Connect uses it for the direct cable; impairment
// pipelines (internal/netem) attach themselves the same way.
func (p *Port) Attach(c Conduit, end int) {
	p.pipe = c
	p.pipeEnd = end
	p.regs.status |= StatusLU
}

// SetObs installs the port's flight recorder and datapath-latency
// histogram (nil disables either); src tags the port's trace events.
func (p *Port) SetObs(tr *obs.Trace, dp *stats.Histogram, src uint16) {
	p.obs = portObs{tr: tr, dp: dp, src: src}
}

// SetRxTap installs (or, with nil, removes) a delivery observer: fn
// sees every frame the conduit hands this port, before FIFO admission
// — so what the tap captures is exactly what survived the link, and
// impairment drops show as gaps. It sees the bytes the wire carries: a
// checksum the sender left pending is filled in first. The tap runs
// synchronously and must not retain data (the bytes return to the frame
// arena after DMA); a pcap writer, which copies into its output stream,
// is the intended consumer.
func (p *Port) SetRxTap(fn func(tsNS int64, data []byte)) {
	p.rxTap = fn
}

// BDF returns the port's PCI address.
func (p *Port) BDF() string { return p.bdf }

// Arena returns the frame arena this port allocates from and frees to.
// An impairment pipeline attached to the port frees dropped frames into
// the same arena.
func (p *Port) Arena() *FrameArena { return p.arena }

// VendorID returns Intel's PCI vendor id.
func (p *Port) VendorID() uint16 { return 0x8086 }

// DeviceID returns the 82576 device id.
func (p *Port) DeviceID() uint16 { return 0x10C9 }

// SetDMACap grants the port its DMA window (IOMMU programming). Only
// meaningful in capability-DMA mode.
func (p *Port) SetDMACap(c cheri.Cap) {
	p.dmaCap = c
}

// queueReg resolves a per-queue bank offset to the queue register it
// addresses, or nil when off is not a queue register.
func (p *Port) queueReg(off uint64) *uint32 {
	var bank *[MaxQueues]queueRegs
	var rel uint64
	switch {
	case off >= RegRXQBase && off < RegRXQBase+MaxQueues*RegQStride:
		bank, rel = &p.regs.rxq, off-RegRXQBase
	case off >= RegTXQBase && off < RegTXQBase+MaxQueues*RegQStride:
		bank, rel = &p.regs.txq, off-RegTXQBase
	default:
		return nil
	}
	q := &bank[rel/RegQStride]
	switch rel % RegQStride {
	case regQBAL:
		return &q.bal
	case regQBAH:
		return &q.bah
	case regQLEN:
		return &q.length
	case regQH:
		return &q.head
	case regQT:
		return &q.tail
	}
	return nil
}

// RegRead32 implements MMIO reads.
func (p *Port) RegRead32(off uint64) uint32 {
	if r := p.queueReg(off); r != nil {
		return *r
	}
	switch {
	case off >= RegRETA && off < RegRETA+RetaEntries:
		i := int(off - RegRETA)
		return binary.LittleEndian.Uint32(p.regs.reta[i : i+4])
	case off >= RegRSSRK && off < RegRSSRK+RSSKeyLen:
		i := int(off - RegRSSRK)
		return binary.LittleEndian.Uint32(p.regs.rssKey[i : i+4])
	}
	switch off {
	case RegCTRL:
		return p.regs.ctrl
	case RegSTATUS:
		return p.regs.status
	case RegRCTL:
		return p.regs.rctl
	case RegTCTL:
		return p.regs.tctl
	case RegMRQC:
		return p.regs.mrqc
	case RegMPC:
		return uint32(p.Missed())
	case RegGPRC:
		return uint32(p.gprc)
	case RegGPTC:
		return uint32(p.gptc)
	case RegGORCL:
		return uint32(p.gorc)
	case RegGORCH:
		return uint32(p.gorc >> 32)
	case RegGOTCL:
		return uint32(p.gotc)
	case RegGOTCH:
		return uint32(p.gotc >> 32)
	case RegRAL0:
		return uint32(p.mac[0]) | uint32(p.mac[1])<<8 | uint32(p.mac[2])<<16 | uint32(p.mac[3])<<24
	case RegRAH0:
		return uint32(p.mac[4]) | uint32(p.mac[5])<<8 | 1<<31 // AV bit
	default:
		return 0
	}
}

// RegWrite32 implements MMIO writes.
func (p *Port) RegWrite32(off uint64, v uint32) {
	if r := p.queueReg(off); r != nil {
		*r = v
		if off%RegQStride == regQLEN {
			p.countProgrammed()
		}
		return
	}
	switch {
	case off >= RegRETA && off < RegRETA+RetaEntries:
		i := int(off - RegRETA)
		binary.LittleEndian.PutUint32(p.regs.reta[i:i+4], v)
		return
	case off >= RegRSSRK && off < RegRSSRK+RSSKeyLen:
		i := int(off - RegRSSRK)
		binary.LittleEndian.PutUint32(p.regs.rssKey[i:i+4], v)
		buildRSSTable(&p.rssTab, p.regs.rssKey[:])
		return
	}
	switch off {
	case RegCTRL:
		if v&CtrlRST != 0 {
			p.reset()
			return
		}
		p.regs.ctrl = v
	case RegRCTL:
		p.regs.rctl = v
	case RegTCTL:
		p.regs.tctl = v
	case RegMRQC:
		p.regs.mrqc = v
	}
}

// reset clears device state (CTRL.RST).
func (p *Port) reset() {
	lu := p.regs.status & StatusLU
	p.regs = portRegs{status: lu}
	p.nq = 0
	p.rssTab = [12][256]uint32{}
	p.gprc, p.gptc, p.gorc, p.gotc = 0, 0, 0, 0
}

// countProgrammed recomputes nq: one past the highest queue with a ring
// of at least one descriptor, the condition every ring test below
// (movable, QueueDeadline's armed/pending) starts from.
func (p *Port) countProgrammed() {
	p.nq = 0
	for q := range p.regs.rxq {
		if p.regs.rxq[q].length >= DescSize || p.regs.txq[q].length >= DescSize {
			p.nq = q + 1
		}
	}
}

// DeliverFrame places an arriving frame whose bytes are final (one
// built by hand, injected or fuzzed) in the RX queue the RSS classifier
// selects. readyAt is the virtual instant the last bit arrives; the
// frame becomes visible to the RX rings from then on. Its transport
// checksum is not checked by the device, so the stack verifies it.
func (p *Port) DeliverFrame(data []byte, readyAt int64) {
	p.DeliverPending(data, readyAt, PendingSum{})
}

// DeliverPending is DeliverFrame for a frame from the far end of a
// conduit, with the checksum its sender left pending (zero: none). A
// frame whose sum is pending crossed unedited, so stepRX reports its
// checksum good. The tap, if any, reads the real bytes: the sum is
// filled in before it looks.
func (p *Port) DeliverPending(data []byte, readyAt int64, sum PendingSum) {
	if p.rxTap != nil {
		sum.fill(data)
		p.rxTap(readyAt, data)
	}
	p.fifos[p.classify(data)].push(data, readyAt, sum)
}

// SetQueueStall freezes (or thaws) one queue pair: a stalled queue's
// TX ring stops draining and its RX FIFO stops filling descriptors, so
// arrivals back up and eventually tail-drop (Missed), exactly like a
// wedged hardware queue. Deterministic: the stall is an instantaneous
// state flip driven from the virtual-time fault plane.
func (p *Port) SetQueueStall(q int, stalled bool) {
	if q < 0 || q >= MaxQueues {
		return
	}
	p.stalled[q] = stalled
}

// InjectDMAFaults arms a burst: the next n DMA mappings (descriptor or
// buffer, either direction) fail as master aborts. The port's existing
// fault paths absorb them — TX bursts stop mid-ring, RX frames drop
// with the descriptor consumed.
func (p *Port) InjectDMAFaults(n int64) {
	if n > 0 {
		p.dmaFaults += n
	}
}

// DMAFaulted counts injected DMA faults that have fired.
func (p *Port) DMAFaulted() uint64 { return p.dmaFaulted }

// dmaFault consumes one unit of the injected-fault budget.
func (p *Port) dmaFault() bool {
	if p.dmaFaults <= 0 {
		return false
	}
	p.dmaFaults--
	p.dmaFaulted++
	return true
}

// dmaRO maps [addr, addr+n) of host memory for a device read.
func (p *Port) dmaRO(addr uint64, n int) ([]byte, bool) {
	if p.dmaFault() {
		return nil, false
	}
	if p.capDMA {
		s, err := p.mem.CheckedSliceRO(p.dmaCap.SetAddr(addr), addr, n)
		return s, err == nil
	}
	s, err := p.mem.RawSlice(addr, n)
	return s, err == nil
}

// dmaRW maps [addr, addr+n) of host memory for a device write.
func (p *Port) dmaRW(addr uint64, n int) ([]byte, bool) {
	if p.dmaFault() {
		return nil, false
	}
	if p.capDMA {
		s, err := p.mem.CheckedSlice(p.dmaCap.SetAddr(addr), addr, n)
		return s, err == nil
	}
	s, err := p.mem.RawSlice(addr, n)
	return s, err == nil
}

// Step advances the device: it drains every armed TX ring onto the wire
// and fills every armed RX ring from its FIFO, under line-rate and
// bus-budget admission. The DPDK poll-mode driver calls it from every
// burst, far more often than a ring has anything to move, so this is the
// simulator's hottest path: each queue's ring is snapshotted where its
// loop reaches it and only rings that can move at all enter
// stepTX/stepRX. An RX ring is also skipped while its FIFO's head frame
// has not fully arrived — except on a bus-limited card, where stepRX's
// arbiter poll is itself simulated state (DESIGN.md §8 proves each skip
// a no-op, and that a snapshot taken after Pump and the TX loop reads
// what one taken before them would).
func (p *Port) Step() {
	now := p.clk.Now()
	if p.pipe != nil {
		// Let a frame-holding conduit (netem delay line, rate limiter)
		// release whatever is due before the RX rings look for arrivals.
		p.pipe.Pump(now)
	}
	for q := 0; q < p.nq; q++ {
		if tx := p.txMovable(q); tx.n > 0 {
			p.stepTX(q, tx, now)
		}
	}
	for q := 0; q < p.nq; q++ {
		if rx := p.rxMovable(q); rx.n > 0 && (p.card.busLimited() || p.fifos[q].headAt() <= now) {
			p.stepRX(q, rx, now)
		}
	}
}

// txMovable snapshots queue q's TX ring where the device may advance
// it: transmit enabled with a conduit attached, the queue not stalled,
// the ring movable.
func (p *Port) txMovable(q int) ring {
	if p.stalled[q] || p.regs.tctl&TctlEN == 0 || p.pipe == nil {
		return ring{}
	}
	return p.regs.txq[q].movable()
}

// rxMovable snapshots queue q's RX ring where the device may advance
// it: receive enabled, the queue not stalled, the ring movable.
func (p *Port) rxMovable(q int) ring {
	if p.stalled[q] || p.regs.rctl&RctlEN == 0 {
		return ring{}
	}
	return p.regs.rxq[q].movable()
}

// stepTX transmits queue q's descriptors [TDH, TDT) as snapshotted in r.
func (p *Port) stepTX(q int, r ring, now int64) {
	var sentFrames, sentBytes uint64
	head := r.head
	for burst := 0; burst < maxBurst && head != r.tail; burst++ {
		descAddr := r.base + uint64(head)*DescSize
		desc, ok := p.dmaRO(descAddr, DescSize)
		if !ok {
			// DMA fault: silently stop, like a master abort. The frames
			// sent before it keep their head advance and stats, below.
			break
		}
		bufAddr := binary.LittleEndian.Uint64(desc[0:8])
		length := int(binary.LittleEndian.Uint16(desc[8:10]))
		cmd := desc[11]
		if length == 0 || length > maxFrame || cmd&TxCmdEOP == 0 {
			// Malformed descriptor: consume it without transmitting.
			p.writeBackStatus(descAddr, StatDD)
			head = (head + 1) % r.n
			continue
		}
		// Admission: the line must have room AND the bus must have
		// budget for the DMA read.
		if !p.line.Admits(now, bookWindow) || !p.card.busCanAdmit(p.idx, now) {
			break
		}
		buf, ok := p.dmaRO(bufAddr, length)
		if !ok {
			p.writeBackStatus(descAddr, StatDD)
			head = (head + 1) % r.n
			continue
		}
		doneAt := p.line.Book(now, sim.BytesNS(length+wireOverhead, p.card.cfg.LineRateBps))
		p.card.busBook(p.idx, now, int(p.card.cfg.BusCostTX*float64(length+wireOverhead)))
		// The checksum engine is not run here: the frame leaves tagged
		// with the sum it owes (PendingSum), summed only where read.
		var sum PendingSum
		if cmd&TxCmdIC != 0 {
			sum = txSum(desc[TxDescCSS], desc[TxDescCSO], length)
		}
		data := p.arena.Alloc(length)
		copy(data, buf)
		p.pipe.Carry(p.pipeEnd, data, doneAt+PropagationDelayNS, sum)

		p.writeBackStatus(descAddr, StatDD)
		head = (head + 1) % r.n
		sentFrames++
		sentBytes += uint64(length)
	}
	if sentFrames > 0 && p.obs.tr != nil {
		p.obs.tr.Record(now, obs.EvNicTxBurst, p.obs.src, int64(sentFrames), int64(sentBytes), int64(q))
	}
	p.gptc += sentFrames
	p.gotc += sentBytes
	p.regs.txq[q].head = head
}

// stepRX moves queue q's fully arrived frames into descriptors
// [RDH, RDT) as snapshotted in r.
func (p *Port) stepRX(q int, r ring, now int64) {
	var gotFrames, gotBytes uint64
	head := r.head
	for burst := 0; burst < maxBurst && head != r.tail; burst++ {
		// Bus budget gate BEFORE popping, so refused frames stay queued.
		if !p.card.busCanAdmit(p.idx, now) {
			break
		}
		data, readyAt, sum, ok := p.fifos[q].pop(now)
		if !ok {
			break
		}
		descAddr := r.base + uint64(head)*DescSize
		desc, ok := p.dmaRO(descAddr, DescSize)
		if !ok {
			p.arena.Free(data) // popped, so ours to release
			break
		}
		bufAddr := binary.LittleEndian.Uint64(desc[0:8])
		dst, ok := p.dmaRW(bufAddr, len(data))
		if !ok {
			// Bad buffer: drop the frame, consume the descriptor.
			p.arena.Free(data)
			p.writeBackRX(descAddr, 0, 0)
			head = (head + 1) % r.n
			continue
		}
		copy(dst, data)
		p.card.busBook(p.idx, now, int(p.card.cfg.BusCostRX*float64(len(data)+wireOverhead)))
		p.writeBackRX(descAddr, uint16(len(data)), sum.rxStatus())
		head = (head + 1) % r.n
		gotFrames++
		gotBytes += uint64(len(data))
		if p.obs.dp != nil {
			// Datapath latency: last bit on the wire to DMA completion
			// (FIFO residence + bus admission).
			p.obs.dp.Record(now - readyAt)
		}
		// The frame now lives in descriptor memory; its wire buffer
		// returns to the arena (see the ownership contract in arena.go).
		p.arena.Free(data)
	}
	if gotFrames > 0 && p.obs.tr != nil {
		p.obs.tr.Record(now, obs.EvNicRxBurst, p.obs.src, int64(gotFrames), int64(gotBytes), int64(q))
	}
	p.gprc += gotFrames
	p.gorc += gotBytes
	p.regs.rxq[q].head = head
}

// writeBackStatus sets the status byte of a TX descriptor.
func (p *Port) writeBackStatus(descAddr uint64, status byte) {
	if s, ok := p.dmaRW(descAddr+12, 1); ok {
		s[0] = status
	}
}

// writeBackRX completes an RX descriptor: length, DD|EOP status plus
// the checksum status l4 (RxStatTCPCS or nothing), no errors.
func (p *Port) writeBackRX(descAddr uint64, length uint16, l4 byte) {
	if s, ok := p.dmaRW(descAddr+8, 8); ok {
		binary.LittleEndian.PutUint16(s[0:2], length)
		s[2], s[3] = 0, 0 // packet checksum (unused)
		s[4] = StatDD | StatEOP | l4
		s[5] = 0 // errors
	}
}

// Missed returns the RX FIFO tail-drop count (MPC), summed over queues.
func (p *Port) Missed() uint64 {
	var total uint64
	for q := range p.fifos {
		total += p.fifos[q].missed
	}
	return total
}

// QueueDeadline reports the earliest virtual instant at or after which
// queue pair q could make progress — what the loop that owns q, and only
// that loop, has to be stepped for: q's head frame becoming harvestable
// (fully arrived AND admissible on the port's bus share, since a frame
// the bus refuses stays in the FIFO) and q's pending TX descriptor
// becoming admissible on the line and the bus. Two terms no queue owns
// are in every queue's answer: the attached conduit releasing a frame
// toward this port (RSS classifies it only on delivery) and the arbiter
// poll cap below. math.MaxInt64 means no time-based work; a value <= now
// means work right now.
//
// The query is side-effect free — in particular it must not touch the
// bus arbiter, whose activity window is part of the simulated machine
// state (see busNextAdmitAt).
func (p *Port) QueueDeadline(q int, now int64) int64 {
	// A stalled queue holds no time-based work: excluding it keeps the
	// leaping driver from spinning at `now` on a ring that will not move
	// until the fault plane thaws it.
	rxArmed := p.regs.rctl&RctlEN != 0 && p.regs.rxq[q].length >= DescSize && !p.stalled[q]
	tx := p.txMovable(q)
	rxPolls := false // some queue's Step enters stepRX, which polls the arbiter
	if p.card.busLimited() {
		for i := 0; i < p.nq && !rxPolls; i++ {
			rxPolls = p.rxMovable(i).n > 0
		}
	}

	// The port's bus share books RX and TX alike and only moves when
	// this port DMAs, so one reading serves both directions.
	busAt := p.card.busNextAdmitAt(p.idx, now)
	d := int64(math.MaxInt64)
	if rxArmed {
		d = p.fifos[q].headAt()
		if d <= now && busAt > now {
			// Arrived but bus-throttled: stepRX refuses it (touching
			// only the arbiter, which the cap below accounts for) until
			// the share re-enters its booking window.
			d = busAt
		}
	}
	if tx.n > 0 {
		d = min(d, max(p.line.AdmitAt(now, bookWindow), busAt))
	}
	if p.pipe != nil {
		d = min(d, p.pipe.NextDeadline(p.pipeEnd, now))
	}
	// On a bus-limited card the polling itself is state: every armed
	// port's Step touches the fair-share arbiter each iteration, and a
	// port that stays silent past busActivityWindow changes the active
	// set (and everyone's rates). Capping the port's silence at half the
	// window — measured from its own last touch, since a driver that
	// steps only due loops may visit many instants without stepping this
	// one — keeps the arbiter's view identical to the tick-stepped
	// driver's. Any loop's Step polls for every queue, so the cap is the
	// port's. A port whose Step would not reach the arbiter (every RX
	// ring stalled or out of free descriptors) has no poll to keep up:
	// its last touch only ages, and a cap anchored there would sit in
	// the past and have the driver poll the loop at every tick.
	if rxPolls {
		d = min(d, p.card.busPollBy(p.idx))
	}
	return d
}

// NextDeadline is the whole port's answer: the earliest QueueDeadline
// over the programmed queues. Queue 0 is always asked, so a port with no
// ring programmed still reports its conduit.
func (p *Port) NextDeadline(now int64) int64 {
	d := p.QueueDeadline(0, now)
	for q := 1; q < p.nq; q++ {
		d = min(d, p.QueueDeadline(q, now))
	}
	return d
}

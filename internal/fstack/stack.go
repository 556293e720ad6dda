package fstack

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/dpdk"
	"repro/internal/fstack/connscale"
	"repro/internal/hostos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// EthDevice is the packet I/O surface the stack drives: one RX/TX queue
// pair. dpdk.Queue implements it directly (the driver lives in the same
// compartment as the stack); the device-gate layout substitutes a gated
// proxy whose every burst crosses into a separate DPDK compartment.
type EthDevice interface {
	RxBurst(out []*dpdk.Mbuf) int
	TxBurst(bufs []*dpdk.Mbuf) int
	Poll()
	MAC() [6]byte
	// NextDeadline reports the earliest virtual instant the device
	// could make progress (harvestable frame, admissible TX, conduit
	// release); math.MaxInt64 = quiescent, <= now = work right now.
	// Part of the interface — not an optional assertion — so a device
	// wrapper that forgets to forward it fails to compile instead of
	// silently reporting "never" and letting the event-driven clock
	// leap past its frames.
	NextDeadline(now int64) int64
}

// NetIF is a configured network interface: one Ethernet device plus its
// IPv4 binding ("eth0"/"eth1" in the paper's scenarios).
type NetIF struct {
	IP   IPv4Addr
	Mask IPv4Addr
	MAC  MACAddr

	dev EthDevice
	arp *arpCache
}

// sameSubnet reports whether ip is on the interface's subnet.
func (n *NetIF) sameSubnet(ip IPv4Addr) bool {
	for i := 0; i < 4; i++ {
		if (ip[i] & n.Mask[i]) != (n.IP[i] & n.Mask[i]) {
			return false
		}
	}
	return true
}

// StackStats counts stack-level events. The retransmit breakdown makes
// recovery behavior observable in every run: Retransmit is the total,
// split into dup-ACK fast retransmits, scoreboard-guided SACK hole
// fills and timeout resends; DupAcks counts duplicate ACKs received.
type StackStats struct {
	RxFrames        uint64
	TxFrames        uint64
	RxDropped       uint64 // parse errors, no socket, bad checksum
	UdpQueueDrops   uint64 // datagrams dropped: bound socket's queue full
	Retransmit      uint64
	FastRetransmit  uint64 // three-dup-ACK and NewReno partial-ACK resends
	SACKRetransmit  uint64 // scoreboard-guided hole fills
	RTORetransmit   uint64 // segments resent after a timeout rewind
	DupAcks         uint64 // duplicate ACKs received
	PersistProbes   uint64 // zero-window probes sent (persist timer)
	FinWait2Drops   uint64 // FIN_WAIT_2 connections dropped after 2MSL with no segment from the peer
	TimeoutDrops    uint64 // connections given up after maxShift timeouts in a row (ETIMEDOUT)
	BadRsts         uint64 // RSTs refused: sequence number outside the receive window
	ArpTx           uint64
	Accepts         uint64 // connections graduated from the SYN cache
	SynDrops        uint64 // SYNs refused (backlog or SYN cache full)
	AcceptOverflows uint64 // graduations deferred/refused: accept queue full
	TimeWaitReuses  uint64 // TIME_WAIT tuples recycled for a fresh connection
	ReassDrops      uint64 // out-of-order segments refused: reassembly budget or window
	// RxL4Offload counts the TCP/UDP segments whose checksum the NIC
	// found good, so the stack did not sum them; every other segment
	// (hand-delivered, injected, edited on the way) is verified here.
	RxL4Offload uint64
}

// Add accumulates another stack's counters into st — the one place
// that knows every field, so aggregators (the sharded stack) cannot
// silently drop a newly added counter.
func (st *StackStats) Add(o StackStats) {
	st.RxFrames += o.RxFrames
	st.TxFrames += o.TxFrames
	st.RxDropped += o.RxDropped
	st.UdpQueueDrops += o.UdpQueueDrops
	st.Retransmit += o.Retransmit
	st.FastRetransmit += o.FastRetransmit
	st.SACKRetransmit += o.SACKRetransmit
	st.RTORetransmit += o.RTORetransmit
	st.DupAcks += o.DupAcks
	st.PersistProbes += o.PersistProbes
	st.FinWait2Drops += o.FinWait2Drops
	st.TimeoutDrops += o.TimeoutDrops
	st.BadRsts += o.BadRsts
	st.ArpTx += o.ArpTx
	st.Accepts += o.Accepts
	st.SynDrops += o.SynDrops
	st.AcceptOverflows += o.AcceptOverflows
	st.TimeWaitReuses += o.TimeWaitReuses
	st.ReassDrops += o.ReassDrops
	st.RxL4Offload += o.RxL4Offload
}

// RecoverySummary formats the retransmit breakdown for scenario
// summaries.
func (st StackStats) RecoverySummary() string {
	s := fmt.Sprintf("retx %d (fast %d, sack %d, rto %d), dup-acks %d",
		st.Retransmit, st.FastRetransmit, st.SACKRetransmit, st.RTORetransmit, st.DupAcks)
	if st.ReassDrops > 0 {
		// A receiver that refused out-of-order segments says so; a run
		// that dropped none prints as it always did.
		s += fmt.Sprintf(", reass-drops %d", st.ReassDrops)
	}
	return s
}

// TCPTuning is the stack-wide TCP feature configuration, the analog of
// FreeBSD's net.inet.tcp sysctls. The zero value reproduces the
// paper's stack exactly (no SACK, no window scaling, 64 KiB windows),
// which is what keeps Scenarios 1-4 byte-identical on the wire; lossy
// or high-BDP paths (Scenario 5) opt in per stack before traffic
// starts.
type TCPTuning struct {
	// SACK advertises SACK-permitted on SYNs and enables RFC 2018
	// selective acknowledgment both ways (net.inet.tcp.sack.enable).
	SACK bool
	// WindowScale, when nonzero, advertises that RFC 7323 window-scale
	// shift (at most MaxWScale) on SYNs (part of net.inet.tcp.rfc1323).
	// Effective only if the peer offers scaling too.
	WindowScale uint8
	// SndBufBytes / RcvBufBytes size new connections' socket buffers
	// (powers of two up to maxRingBytes; 0 keeps the 512 KiB / 256 KiB
	// defaults). A scaled receive window is bounded by RcvBufBytes, so
	// high-BDP paths must raise it. A ring takes its segment memory on
	// its first write, so an idle connection costs only its struct.
	SndBufBytes int
	RcvBufBytes int
	// Congestion selects the congestion-control algorithm for new
	// connections (net.inet.tcp.cc.algorithm): CCReno or CCCubic, with
	// "" meaning the CCReno default — the extracted paper-stack
	// behavior.
	Congestion string
	// SynCacheSize bounds the half-open SYN cache
	// (net.inet.tcp.syncache.cachelimit); 0 keeps the 1024 default.
	SynCacheSize int
	// RTOMinNS raises the retransmission-timer floor
	// (net.inet.tcp.rexmit_min); 0 keeps the 2 ms default. Every stack
	// of a path whose senders face ms-scale queueing delay needs it.
	RTOMinNS int64
}

// maxRingBytes is the largest socket buffer: a ring's size and counters
// are 32-bit.
const maxRingBytes = 1 << 31

// Validate reports why no connection could be built with t: a socket
// buffer size that is neither 0 (the default) nor a power of two up to
// maxRingBytes, a window-scale shift past MaxWScale, a negative RTO
// floor, or an unknown congestion-control algorithm. SetTCPTuning
// refuses such a tuning, and a testbed spec is checked with it before
// anything is built.
func (t TCPTuning) Validate() error {
	if !ValidCongestion(t.Congestion) {
		return fmt.Errorf("unknown congestion-control algorithm %q (have %v)", t.Congestion, CongestionAlgos())
	}
	if t.WindowScale > MaxWScale {
		return fmt.Errorf("Tuning.WindowScale is %d; a window-scale shift is at most %d (RFC 7323 §2.3)",
			t.WindowScale, MaxWScale)
	}
	if t.RTOMinNS < 0 {
		return fmt.Errorf("Tuning.RTOMinNS is %d; the RTO floor is positive, or 0 for the default", t.RTOMinNS)
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{"SndBufBytes", t.SndBufBytes}, {"RcvBufBytes", t.RcvBufBytes}} {
		if f.v < 0 || f.v > maxRingBytes || f.v&(f.v-1) != 0 {
			return fmt.Errorf("Tuning.%s is %d; a socket buffer is a power of two up to %d, or 0 for the default",
				f.name, f.v, maxRingBytes)
		}
	}
	return nil
}

// Stack is a user-space TCP/IP instance — interfaces, connection tables
// and socket layer — and the F-Stack main loop that owns it: after an
// initialization phase, a poll-mode iteration runs forever, "(i)
// process the ring buffers of the DPDK Ethernet driver; and (ii)
// execute a user-defined function where calls to F-Stack API functions
// can be made" (§III-B). RunOnce is one iteration.
type Stack struct {
	// OnLoop is the user-defined function, called at the end of every
	// iteration (the app and the stack share a compartment in Baseline
	// and Scenario 1). It calls the Stack's API directly.
	OnLoop func(now int64)

	// ShardedAPI is the stack's own descriptor table: the view of this
	// stack alone, whose ff_* calls are the Stack's. self is its shard
	// list, held here so that the view costs no allocation of its own.
	ShardedAPI
	self [1]*Stack

	seg  *dpdk.MemSeg
	pool *dpdk.Mempool
	clk  hostos.Clock

	nifs      []*NetIF
	conns     connTable
	listeners map[tcpEndpoint]*listener
	udps      map[tcpEndpoint]*udpSock

	// connSeq numbers connections in creation order. The poll loop
	// sorts its visit list by seq so timer firing and output
	// interleaving are identical run to run — map iteration order is
	// randomized per process, and the goldens must not depend on
	// winning that lottery.
	connSeq uint64

	// wheel holds every armed connection timer; synWheel the SYN|ACK
	// retransmit timers of half-open SYN-cache entries. Arming and
	// disarming are O(1), and NextDeadline never scans idle
	// connections — the property that makes 100k parked connections
	// free. A wheel entry may run early (a timer was disarmed or
	// re-armed later without touching the wheel); the visit then finds
	// nothing due and syncTimer re-files the exact deadline.
	wheel    *connscale.Wheel[*tcpConn]
	synWheel *connscale.Wheel[*synEntry]
	// fireConnF/fireSynF are the Advance callbacks, bound once at
	// construction — method values created per poll would allocate.
	fireConnF func(*tcpConn)
	fireSynF  func(*synEntry)

	// visit lists the connections the next poll visits, once each
	// (c.queued): those whose wheel entry fired, and those an API call
	// or a failed transmit queued (window update owed, TX ring full).
	// The poll sorts it by creation seq and walks what it held when the
	// walk began; what the walk queues waits for the next poll.
	visit []*tcpConn

	// syncache holds half-open connections: a SYN costs one pooled
	// entry here, not a full tcpConn. Entries graduate to connections
	// on the final ACK and retransmit SYN|ACKs via synWheel.
	syncache map[fourTuple]*synEntry

	// The arenas every struct of the connection plane comes from, so a
	// churn of short flows reaches zero steady-state allocations:
	// connections, sockets, the cold records connections take on loss,
	// reordering or a zero window, SYN-cache entries and epoll
	// registrations (regSlabLen a refill: churn registers and
	// unregisters every short flow).
	connArena arena[tcpConn]
	sockArena arena[socket]
	coldArena arena[tcpCold]
	synArena  arena[synEntry]
	regArena  arena[epollReg]

	// dgramFree recycles UDP payload buffers (udpPayloadMax capacity
	// each) between inputUDP and RecvFrom/Close, keeping the datagram
	// round trip allocation-free at steady state. dgramMade counts the
	// buffers made: each one is queued on a socket or free-listed.
	dgramFree [][]byte
	dgramMade int

	// portRefs counts live connections per local ephemeral port
	// (index port-ephemeralBase), allocated on first use. It bounds
	// allocEphemeral: a full range is EADDRNOTAVAIL, not an infinite
	// loop.
	portRefs []uint32

	issCounter uint32
	ipID       uint16
	ephemeral  uint16
	tuning     TCPTuning

	// down marks a crashed stack (see Crash/Restart in crash.go):
	// PollOnce is a no-op and NextDeadline reports quiescence until the
	// supervisor restarts the compartment.
	down bool

	// wantPoll marks state-driven work an API call queued for the next
	// poll's timer pass (currently: a read re-opened a closed receive
	// window, so a window-update ACK is owed). The event-driven driver
	// must visit the next iteration rather than leap.
	wantPoll bool

	// rxBurst is the poll loop's harvest scratch. As a local it would
	// escape through the EthDevice interface call and cost one heap
	// allocation per poll — the simulator's single hottest allocation
	// site before it moved here. txOne is the same story for the
	// transmit path's one-frame bursts (one allocation per frame).
	// Both are safe as fields: a stack runs on one goroutine and the
	// device never retains the slice.
	rxBurst [32]*dpdk.Mbuf
	txOne   [1]*dpdk.Mbuf
	// sackRx backs the SACK blocks of the segment being parsed, sackTx
	// those of the ACK being built: input ACKs while its header is live.
	// A peer without timestamps may send one more block than we do.
	sackRx [maxSACKBlocksRx]SACKBlock
	sackTx [MaxSACKBlocks]SACKBlock

	stats StackStats

	// Flight-recorder hooks (nil = observability off, zero cost on the
	// datapath). obsSrc tags events with this stack's identity (shard
	// index in a sharded stack). Set via SetObs before traffic.
	obsTr  *obs.Trace
	obsRTT *stats.Histogram
	obsSrc uint16

	// Core is where the stack books what its work costs its thread (sim's
	// cost table): its own, or the cVM's it runs in. Protocol time is clk's.
	Core *sim.Core

	iterations uint64
}

// ephemeralBase is the bottom of the ephemeral port range.
const ephemeralBase = 32768

// NewStack builds a stack over the given segment, buffer pool and clock.
func NewStack(seg *dpdk.MemSeg, pool *dpdk.Mempool, clk hostos.Clock) *Stack {
	s := &Stack{
		seg:       seg,
		pool:      pool,
		clk:       clk,
		Core:      new(sim.Core),
		listeners: make(map[tcpEndpoint]*listener),
		udps:      make(map[tcpEndpoint]*udpSock),
		syncache:  make(map[fourTuple]*synEntry),
		ephemeral: ephemeralBase,
		wheel:     connscale.New[*tcpConn](0, connscale.DefaultTickShift),
		synWheel:  connscale.New[*synEntry](0, connscale.DefaultTickShift),
		regArena:  arena[epollReg]{slab: regSlabLen},
	}
	s.self[0] = s
	s.ShardedAPI = newView(nil, s.self[:])
	s.fireConnF = func(c *tcpConn) {
		c.timerH = connscale.None
		s.queueVisit(c)
	}
	s.fireSynF = func(e *synEntry) {
		e.timerH = connscale.None
		s.synRetransmit(e)
	}
	return s
}

// addConn registers a connection in the table, stamping its creation
// order and pinning its local ephemeral port.
func (s *Stack) addConn(c *tcpConn) {
	s.connSeq++
	c.seq = s.connSeq
	s.conns.add(c)
	if c.tuple.local.Port >= ephemeralBase {
		s.portAcquire(c.tuple.local.Port)
	}
}

// portAcquire / portRelease maintain the per-ephemeral-port refcounts.
func (s *Stack) portAcquire(p uint16) {
	if s.portRefs == nil {
		s.portRefs = make([]uint32, 65536-ephemeralBase)
	}
	s.portRefs[p-ephemeralBase]++
}

func (s *Stack) portRelease(p uint16) {
	if s.portRefs != nil && s.portRefs[p-ephemeralBase] > 0 {
		s.portRefs[p-ephemeralBase]--
	}
}

// noteTimer lowers a connection's wheel entry to a newly armed
// deadline. Arming later than the filed deadline needs no work — the
// entry fires early, the visit finds nothing due, and syncTimer
// re-files the exact minimum. Disarming likewise.
func (s *Stack) noteTimer(c *tcpConn, at int64) {
	if c.timerH != connscale.None {
		if at >= s.wheel.Deadline(c.timerH) {
			return
		}
		s.wheel.Remove(c.timerH)
	}
	c.timerH = s.wheel.Insert(at, c)
}

// syncTimer reconciles a connection's wheel entry with its exact
// earliest deadline, called after every poll visit.
func (s *Stack) syncTimer(c *tcpConn) {
	if c.state == tcpClosed {
		return
	}
	d := connDeadline(c)
	if c.timerH != connscale.None {
		if d == s.wheel.Deadline(c.timerH) {
			return
		}
		s.wheel.Remove(c.timerH)
		c.timerH = connscale.None
	}
	if d == math.MaxInt64 {
		return
	}
	c.timerH = s.wheel.Insert(d, c)
}

// queueVisit adds a connection to the visit list (deduplicated): its
// wheel entry fired, a transmit failed (ring full — retry when the
// device drains) or an API call owes protocol work (window-update ACK
// after a read).
func (s *Stack) queueVisit(c *tcpConn) {
	if c.queued || c.state == tcpClosed {
		return
	}
	c.queued = true
	s.visit = append(s.visit, c)
}

// connDeadline is the earliest armed timer of one connection.
func connDeadline(c *tcpConn) int64 {
	d := int64(math.MaxInt64)
	if c.rtxAt != 0 && c.rtxAt < d {
		d = c.rtxAt
	}
	if c.delackAt != 0 && c.delackAt < d {
		d = c.delackAt
	}
	return d
}

// NextDeadline reports the earliest virtual instant at which this
// stack could make progress; math.MaxInt64 means none, a value <= now
// means work is due already. It reads the timing wheels' minima (O(1) —
// no scan of idle connections, however many are parked) and whatever the
// attached devices hold.
func (s *Stack) NextDeadline(now int64) int64 {
	if s.down {
		// A crashed stack holds no work: arrivals park in the device
		// rings until Restart (whose instant the supervisor's own
		// NextDeadline supplies), so reporting them here would spin the
		// leaping driver at `now` for the whole outage.
		return math.MaxInt64
	}
	if s.wantPoll {
		return now
	}
	d := s.wheel.NextDeadline()
	if sd := s.synWheel.NextDeadline(); sd < d {
		d = sd
	}
	for _, nif := range s.nifs {
		if at := nif.dev.NextDeadline(now); at < d {
			d = at
		}
	}
	return d
}

// AddNetIF binds one queue pair of a started ethdev with its IPv4
// configuration.
func (s *Stack) AddNetIF(dev EthDevice, ip, mask IPv4Addr) *NetIF {
	nif := &NetIF{
		IP:   ip,
		Mask: mask,
		MAC:  MACAddr(dev.MAC()),
		dev:  dev,
		arp:  newARPCache(),
	}
	s.nifs = append(s.nifs, nif)
	return nif
}

// SetTCPTuning configures SACK, window scaling, socket buffer sizes,
// the congestion-control algorithm and the retransmission-timer floor.
// It is a boot-time knob: set it before traffic starts, on both ends of
// the path that needs it (an un-tuned peer simply declines the options
// and the connection runs exactly as before). A tuning Validate rejects
// is refused and the stack keeps the one it had.
func (s *Stack) SetTCPTuning(t TCPTuning) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("fstack: %w", err)
	}
	s.tuning = t
	return nil
}

// Lock and Unlock do nothing: a bed runs on one goroutine, so the stack
// has no host lock. They stay only because bench/ still calls them
// (ROADMAP item 9 drops those calls, and then these go).
func (s *Stack) Lock()   {}
func (s *Stack) Unlock() {}

// now reads the stack clock.
func (s *Stack) now() int64 { return s.clk.Now() }

// Stats returns a copy of the counters.
func (s *Stack) Stats() StackStats { return s.stats }

// SetObs attaches the flight recorder and RTT histogram to this stack's
// TCP machinery; src tags emitted events (shard index for sharded
// stacks). Call before traffic; nil detaches.
func (s *Stack) SetObs(tr *obs.Trace, rtt *stats.Histogram, src uint16) {
	s.obsTr, s.obsRTT, s.obsSrc = tr, rtt, src
}

// SumCwndPipe sums the live connections' congestion windows and
// outstanding bytes — the metrics sampler's gauge over this stack.
func (s *Stack) SumCwndPipe() (cwnd, pipe int) {
	// Slot order is fine here: integer sums are order-independent.
	for c := range s.conns.all() {
		cwnd += int(c.cwnd)
		pipe += c.pipe()
	}
	return cwnd, pipe
}

// ConnCount reports the number of live connections (metrics gauge).
func (s *Stack) ConnCount() int {
	return s.conns.n
}

// RetainedBytes is a deterministic accounting of the heap the stack's
// connection plane holds onto. It counts what the arenas issued, live or
// free: connection structs with their ring headers and congestion
// windows, cold records (each at its reassembly runs' and SACK
// scoreboard's capacity), socket structs, SYN-cache entries and epoll
// registrations; the tuple table's slots; and every datagram buffer
// made, queued or free-listed. None of it falls while the stack runs:
// a struct or buffer once made stays the stack's, and the tuple table
// only grows. Segment-backed socket buffer storage is excluded — the
// segment allocator reports that itself (MemSeg.Used) — and so is the
// unissued tail of each arena's current slab: capacity, not
// population. A view's entries live in its table pages, which are not
// counted yet.
//
// Scenario 8 measures the idle population's memory cost as a delta of
// this count, not of runtime.MemStats: the process heap is shared by
// every concurrently running sweep cell, so a ReadMemStats delta is
// garbage at -parallel > 1, while this count derives only from the
// stack's own state and is identical at any host parallelism.
func (s *Stack) RetainedBytes() uint64 {
	const (
		rangeSz = uint64(unsafe.Sizeof(seqRange{}))
		oooSz   = uint64(unsafe.Sizeof(oooRun{}))
	)
	b := uint64(s.connArena.issued)*uint64(unsafe.Sizeof(tcpConn{})) +
		uint64(s.coldArena.issued)*uint64(unsafe.Sizeof(tcpCold{})) +
		uint64(s.sockArena.issued)*uint64(unsafe.Sizeof(socket{})) +
		uint64(s.synArena.issued)*uint64(unsafe.Sizeof(synEntry{})) +
		uint64(s.regArena.issued)*uint64(unsafe.Sizeof(epollReg{})) +
		uint64(len(s.conns.slots))*uint64(unsafe.Sizeof((*tcpConn)(nil))) +
		uint64(s.dgramMade)*udpPayloadMax
	s.coldArena.each(func(k *tcpCold) {
		b += uint64(cap(k.sacked))*rangeSz + uint64(cap(k.rcvOOO))*oooSz
	})
	return b
}

// AcceptQueueDepth sums the pending (accepted, not yet Accept()ed)
// connections across listeners (metrics gauge).
func (s *Stack) AcceptQueueDepth() int {
	n := 0
	for _, l := range s.listeners {
		n += l.pendingCount()
	}
	return n
}

// nifForDst picks the outgoing interface for a destination.
func (s *Stack) nifForDst(ip IPv4Addr) *NetIF {
	for _, n := range s.nifs {
		if n.sameSubnet(ip) {
			return n
		}
	}
	if len(s.nifs) > 0 {
		return s.nifs[0]
	}
	return nil
}

// nifByIP finds the interface owning the local address (zero = first).
func (s *Stack) nifByIP(ip IPv4Addr) *NetIF {
	if ip == (IPv4Addr{}) {
		if len(s.nifs) > 0 {
			return s.nifs[0]
		}
		return nil
	}
	for _, n := range s.nifs {
		if n.IP == ip {
			return n
		}
	}
	return nil
}

// --- transmit path ---

// txAlloc grabs an mbuf and reserves a frame of EthHeaderLen+ipLen
// bytes, returning the writable frame slice.
func (s *Stack) txAlloc(ipLen int) (*dpdk.Mbuf, []byte) {
	m, ok := s.pool.Get()
	if !ok {
		return nil, nil
	}
	frame, err := m.Append(EthHeaderLen + ipLen)
	if err != nil {
		m.Free()
		return nil, nil
	}
	return m, frame
}

// sendIPv4 finishes an outgoing packet: the transport wrote its segment
// at frame[EthHeaderLen+IPv4HeaderLen:]; this fills the IP and Ethernet
// headers, resolves the next hop and transmits. A TCP or UDP segment's
// checksum holds only its seed (PutTCPHeader, PutUDPHeader), so its
// mbuf asks the NIC to complete it. Returns false when the frame could
// not be queued (caller retries later); ARP-parked packets count as
// sent.
func (s *Stack) sendIPv4(nif *NetIF, m *dpdk.Mbuf, frame []byte, dst IPv4Addr, proto uint8, segLen int) bool {
	if proto == ProtoTCP || proto == ProtoUDP {
		m.SetL4Sum()
	}
	s.ipID++
	PutIPv4Header(frame[EthHeaderLen:], IPv4Header{
		TotalLen: uint16(IPv4HeaderLen + segLen),
		ID:       s.ipID,
		Flags:    flagDontFragment,
		TTL:      64,
		Proto:    proto,
		Src:      nif.IP,
		Dst:      dst,
	})
	mac, ok := nif.arp.lookup(dst, s.now())
	if !ok {
		// Park the IP packet and ask for the binding.
		nif.arp.park(dst, frame[EthHeaderLen:], EtherTypeIPv4, m.L4Sum())
		m.Free()
		s.sendARPRequest(nif, dst)
		return true
	}
	PutEthHeader(frame, EthHeader{Dst: mac, Src: nif.MAC, Type: EtherTypeIPv4})
	return s.txSubmit(nif, m)
}

// txSubmit hands a finished frame to the device, maintaining statistics.
// It frees the mbuf on refusal.
func (s *Stack) txSubmit(nif *NetIF, m *dpdk.Mbuf) bool {
	s.txOne[0] = m
	if nif.dev.TxBurst(s.txOne[:]) != 1 {
		m.Free()
		return false
	}
	s.stats.TxFrames++
	return true
}

// sendARPRequest broadcasts a who-has query.
func (s *Stack) sendARPRequest(nif *NetIF, target IPv4Addr) {
	m, frame := s.txAlloc(ARPPacketLen)
	if m == nil {
		return
	}
	PutEthHeader(frame, EthHeader{Dst: BroadcastMAC, Src: nif.MAC, Type: EtherTypeARP})
	PutARPPacket(frame[EthHeaderLen:], ARPPacket{
		Op:        ARPRequest,
		SenderMAC: nif.MAC,
		SenderIP:  nif.IP,
		TargetIP:  target,
	})
	if s.txSubmit(nif, m) {
		s.stats.ArpTx++
	}
}

// replayPending retransmits a packet that was parked on an ARP miss.
func (s *Stack) replayPending(nif *NetIF, dst IPv4Addr, mac MACAddr, p *pendingPacket) {
	m, frame := s.txAlloc(len(p.payload))
	if m == nil {
		return
	}
	PutEthHeader(frame, EthHeader{Dst: mac, Src: nif.MAC, Type: p.proto})
	copy(frame[EthHeaderLen:], p.payload)
	if p.l4sum {
		m.SetL4Sum()
	}
	s.txSubmit(nif, m)
}

// --- receive path ---

// input demultiplexes one received frame. The mbuf is freed here.
func (s *Stack) input(nif *NetIF, m *dpdk.Mbuf) {
	defer m.Free()
	frame, err := m.BytesRO()
	if err != nil {
		s.stats.RxDropped++
		return
	}
	eth, err := ParseEthHeader(frame)
	if err != nil {
		s.stats.RxDropped++
		return
	}
	if eth.Dst != nif.MAC && eth.Dst != BroadcastMAC {
		s.stats.RxDropped++
		return
	}
	s.stats.RxFrames++
	s.Core.Book(s.now(), sim.FrameHoldNS)
	payload := frame[EthHeaderLen:]
	switch eth.Type {
	case EtherTypeARP:
		s.inputARP(nif, payload)
	case EtherTypeIPv4:
		s.inputIPv4(nif, payload, m.L4Sum())
	default:
		s.stats.RxDropped++
	}
}

// inputARP handles requests (reply if we are the target) and replies
// (cache insert + pending replay).
func (s *Stack) inputARP(nif *NetIF, b []byte) {
	p, err := ParseARPPacket(b)
	if err != nil {
		s.stats.RxDropped++
		return
	}
	switch p.Op {
	case ARPRequest:
		// Opportunistically learn the sender, then answer.
		nif.arp.insert(p.SenderIP, p.SenderMAC, s.now())
		if p.TargetIP != nif.IP {
			return
		}
		m, frame := s.txAlloc(ARPPacketLen)
		if m == nil {
			return
		}
		PutEthHeader(frame, EthHeader{Dst: p.SenderMAC, Src: nif.MAC, Type: EtherTypeARP})
		PutARPPacket(frame[EthHeaderLen:], ARPPacket{
			Op:        ARPReply,
			SenderMAC: nif.MAC,
			SenderIP:  nif.IP,
			TargetMAC: p.SenderMAC,
			TargetIP:  p.SenderIP,
		})
		s.txSubmit(nif, m)
	case ARPReply:
		for _, pend := range nif.arp.insert(p.SenderIP, p.SenderMAC, s.now()) {
			s.replayPending(nif, p.SenderIP, p.SenderMAC, pend)
		}
	}
}

// inputIPv4 dispatches to the transport protocols; nicSum is the
// frame's offload flag: the NIC found its TCP/UDP checksum good.
func (s *Stack) inputIPv4(nif *NetIF, b []byte, nicSum bool) {
	h, ihl, err := ParseIPv4Header(b)
	if err != nil || h.Dst != nif.IP {
		s.stats.RxDropped++
		return
	}
	seg := b[ihl:h.TotalLen]
	switch h.Proto {
	case ProtoICMP:
		s.inputICMP(nif, h, seg)
	case ProtoTCP:
		s.inputTCP(nif, h, seg, nicSum)
	case ProtoUDP:
		s.inputUDP(nif, h, seg, nicSum)
	default:
		s.stats.RxDropped++
	}
}

// inputICMP answers echo requests.
func (s *Stack) inputICMP(nif *NetIF, ip IPv4Header, seg []byte) {
	echo, err := ParseICMPEcho(seg)
	if err != nil || echo.Type != ICMPEchoRequest {
		s.stats.RxDropped++
		return
	}
	m, frame := s.txAlloc(IPv4HeaderLen + len(seg))
	if m == nil {
		return
	}
	reply := frame[EthHeaderLen+IPv4HeaderLen:]
	copy(reply, seg)
	PutICMPEcho(reply, ICMPEcho{Type: ICMPEchoReply, ID: echo.ID, Seq: echo.Seq})
	s.sendIPv4(nif, m, frame, ip.Src, ProtoICMP, len(seg))
}

// inputTCP finds or creates the connection for a segment; nicSum is the
// frame's offload flag.
func (s *Stack) inputTCP(nif *NetIF, ip IPv4Header, seg []byte, nicSum bool) {
	if nicSum {
		s.stats.RxL4Offload++
	}
	h, hl, err := parseTCPHeader(seg, ip.Src, ip.Dst, s.sackRx[:], nicSum)
	if err != nil {
		s.stats.RxDropped++
		return
	}
	tuple := fourTuple{
		local:  tcpEndpoint{IP: ip.Dst, Port: h.DstPort},
		remote: tcpEndpoint{IP: ip.Src, Port: h.SrcPort},
	}
	payload := seg[hl:]
	if c := s.conns.get(tuple); c != nil {
		if c.state != tcpTimeWait || h.Flags&(TCPSyn|TCPAck|TCPRst) != TCPSyn || !seqGT(h.Seq, c.rcvNxt) {
			c.input(h, payload)
			return
		}
		// TIME_WAIT reuse (RFC 1122 §4.2.2.13): a fresh SYN with a
		// sequence number beyond the old connection's recycles the
		// tuple immediately instead of making the peer wait out 2MSL.
		s.stats.TimeWaitReuses++
		s.removeConn(c)
		// Fall through to the listener path: the SYN starts a new flow.
	}
	if e, ok := s.syncache[tuple]; ok {
		s.synInput(e, h, payload)
		return
	}
	// New flow: only a SYN to a listener is welcome.
	if h.Flags&TCPSyn != 0 && h.Flags&TCPAck == 0 {
		if l := s.findListener(tuple.local); l != nil {
			s.acceptSyn(l, tuple, h)
			return
		}
	}
	if h.Flags&TCPRst == 0 {
		s.sendRSTFor(nif, ip, h, len(payload))
	}
	s.stats.RxDropped++
}

// findListener matches exact binding first, then wildcard IP.
func (s *Stack) findListener(ep tcpEndpoint) *listener {
	if l, ok := s.listeners[ep]; ok {
		return l
	}
	if l, ok := s.listeners[tcpEndpoint{Port: ep.Port}]; ok {
		return l
	}
	return nil
}

// notifyAccept queues a completed connection on its listener.
func (s *Stack) notifyAccept(c *tcpConn) {
	l := s.findListener(c.tuple.local)
	if l == nil {
		c.sendRST()
		c.abort(hostos.ECONNRESET)
		return
	}
	if l.halfOpen > 0 {
		l.halfOpen--
	}
	l.pushPending(c)
	if s.obsTr != nil {
		s.obsTr.Record(s.now(), obs.EvTCPAccept, s.obsSrc,
			int64(l.pendingCount()), int64(len(s.syncache)), int64(c.tuple.local.Port))
	}
}

// sendRSTFor answers an unexpected segment with a reset.
func (s *Stack) sendRSTFor(nif *NetIF, ip IPv4Header, h TCPHeader, payloadLen int) {
	rst := TCPHeader{
		SrcPort: h.DstPort,
		DstPort: h.SrcPort,
		Flags:   TCPRst | TCPAck,
		Ack:     h.Seq + uint32(payloadLen),
	}
	if h.Flags&TCPSyn != 0 {
		rst.Ack++
	}
	if h.Flags&TCPAck != 0 {
		rst.Seq = h.Ack
		rst.Flags = TCPRst
	}
	hl := rst.encodedLen()
	m, frame := s.txAlloc(IPv4HeaderLen + hl)
	if m == nil {
		return
	}
	PutTCPHeader(frame[EthHeaderLen+IPv4HeaderLen:], rst, ip.Dst, ip.Src, hl)
	s.sendIPv4(nif, m, frame, ip.Src, ProtoTCP, hl)
}

// removeConn ends the connection: CLOSED, dropped from the table, its
// timer unfiled and its port released — all O(1) — and the struct
// recycled when nothing else can reach it.
func (s *Stack) removeConn(c *tcpConn) {
	if c.state == tcpClosed {
		return
	}
	c.setState(tcpClosed)
	s.conns.del(c)
	if c.tuple.local.Port >= ephemeralBase {
		s.portRelease(c.tuple.local.Port)
	}
	if c.timerH != connscale.None {
		s.wheel.Remove(c.timerH)
		c.timerH = connscale.None
	}
	s.maybeRecycleConn(c)
}

// PollOnce is one stack iteration: drain RX, fire due timers, then visit
// exactly the connections with pending work.
func (s *Stack) PollOnce() {
	if s.down {
		return // crashed: not even the devices are stepped
	}
	s.wantPoll = false // the visit pass below answers any queued work
	burst := s.rxBurst[:]
	for _, nif := range s.nifs {
		for {
			n := nif.dev.RxBurst(burst)
			for i := 0; i < n; i++ {
				s.input(nif, burst[i])
			}
			if n < len(burst) {
				break
			}
		}
	}
	now := s.now()
	s.wheel.Advance(now, s.fireConnF)
	s.synWheel.Advance(now, s.fireSynF)
	if n := len(s.visit); n > 0 {
		// Creation order, not wheel or map order: reproducible timer
		// and output interleaving. Visiting only this subset is
		// equivalent to the historical visit-every-connection walk —
		// onTimers and output are no-ops on a connection with no due
		// timer, no newly sendable data and no owed window update.
		slices.SortFunc(s.visit, func(a, b *tcpConn) int {
			return cmp.Compare(a.seq, b.seq)
		})
		// Only the n queued when the walk began: a connection whose
		// transmit fails during its visit queues itself again, and is
		// retried by the next poll, not in this pass.
		for _, c := range s.visit[:n] {
			c.queued = false
			if c.state == tcpClosed {
				s.maybeRecycleConn(c) // closed while queued
				continue
			}
			c.onTimers(now)
			c.output()
			s.syncTimer(c)
		}
		s.visit = slices.Delete(s.visit, 0, n)
	}
	for _, nif := range s.nifs {
		nif.dev.Poll()
	}
}

// RunOnce executes one main-loop iteration: drain RX rings, run
// protocol input and timers, flush TX, then the user callback. A
// crashed stack polls nothing but still runs the callback and counts
// the iteration.
func (s *Stack) RunOnce() {
	s.PollOnce()
	if s.OnLoop != nil {
		s.OnLoop(s.now())
	}
	s.iterations++
}

// Iterations reports completed main-loop iterations.
func (s *Stack) Iterations() uint64 { return s.iterations }

// String summarizes the stack.
func (s *Stack) String() string {
	return fmt.Sprintf("fstack{%d nifs, %d conns, %d socks}", len(s.nifs), s.conns.n, s.sockArena.issued-len(s.sockArena.free))
}

package obs

// EventType enumerates the flight recorder's event taxonomy. Each type
// belongs to one layer of the stack; the A/B/C argument meanings are
// per-type (documented on the constants) — fixed-size records keep the
// recorder allocation-free.
type EventType uint8

const (
	// EvNetemEnqueue: a frame entered a link's impairment pipeline.
	// A=frame bytes, B=scheduled delivery instant (ns), C=held frames
	// after the enqueue. Src = link src base + direction.
	EvNetemEnqueue EventType = iota
	// EvNetemDrop: the link destroyed a frame. A=frame bytes,
	// B=drop kind (DropIID/DropBurst/DropQueue).
	EvNetemDrop
	// EvNicTxBurst: a port drained TX descriptors onto the wire.
	// A=frames, B=bytes, C=queue. Src = port id.
	EvNicTxBurst
	// EvNicRxBurst: a port DMAed arrived frames into an RX ring.
	// A=frames, B=bytes, C=queue. Src = port id.
	EvNicRxBurst
	// EvDevRxBurst: the poll-mode driver harvested frames. A=frames,
	// C=queue. Src = device id.
	EvDevRxBurst
	// EvDevTxBurst: the poll-mode driver queued frames for transmit.
	// A=frames, C=queue. Src = device id.
	EvDevTxBurst
	// EvTCPState: a TCP connection changed state. A=old state, B=new
	// state (fstack's tcpState numbering), C=local port. Src = stack id.
	EvTCPState
	// EvTCPRetransmit: a segment was retransmitted. A=kind
	// (RetxRTO/RetxFast/RetxSACK), B=sequence number, C=local port.
	EvTCPRetransmit
	// EvTCPCwnd: a connection's congestion window changed. A=cwnd
	// bytes, C=local port. Exported as a Chrome counter series.
	EvTCPCwnd
	// EvTCPAccept: a half-open connection graduated from the SYN cache
	// into the accept queue. A=accept-queue depth after the enqueue,
	// B=SYN-cache entries remaining, C=local (listen) port.
	EvTCPAccept
	// EvTCPSynDrop: a SYN was refused. A=reason (SynDropBacklog /
	// SynDropCache / SynDropOverflow), B=accept-queue depth,
	// C=local (listen) port.
	EvTCPSynDrop
	// EvGateCrossing: a sealed cross-compartment gate call completed.
	// A=total completed crossings.
	EvGateCrossing
	// EvUDPDrop: a datagram was dropped because the bound socket's
	// queue was full. A=payload bytes, B=queue depth, C=dst port.
	// Src = stack id.
	EvUDPDrop
	// EvAppRequest: an application request/response exchange completed
	// (or, for ReqTimeout, was given up on). A=latency ns from first
	// send to last response byte, B=response bytes, C=kind
	// (ReqHTTP/ReqDNS/ReqTimeout). Src = app worker id.
	EvAppRequest
	// EvFault: an injected or organic fault hit a compartment or
	// device. A=fault kind (FaultCap/FaultNICStall/FaultDMA),
	// B=retries so far for this target. Src = env/device id.
	EvFault
	// EvRestart: the supervisor restarted a trapped compartment.
	// A=retry count consumed, B=downtime ns (trap → restart).
	// Src = env id.
	EvRestart
	// EvLinkCarrier: a link direction's carrier toggled. A=1 for up,
	// 0 for down. Src = link src base + direction.
	EvLinkCarrier

	evTypeCount
)

// EvFault kinds (event argument A).
const (
	FaultCap      = 0 // injected capability fault trapped a cVM
	FaultNICStall = 1 // NIC queue stall window began
	FaultDMA      = 2 // DMA fault burst armed
)

// EvAppRequest kinds (event argument C).
const (
	ReqHTTP    = 0 // HTTP/1.1 keep-alive exchange completed
	ReqDNS     = 1 // DNS query answered
	ReqTimeout = 2 // DNS query abandoned after retries
)

// EvTCPSynDrop reasons (event argument A).
const (
	SynDropBacklog  = 0 // listen backlog full at SYN arrival
	SynDropCache    = 1 // SYN cache at capacity
	SynDropOverflow = 2 // accept queue full at graduation (final ACK)
)

// EvNetemDrop kinds (event argument B).
const (
	DropIID   = 0 // i.i.d. random loss
	DropBurst = 1 // Gilbert–Elliott burst loss
	DropQueue = 2 // bottleneck queue overflow (tail or RED)
	// DropCarrier: the frame entered the pipeline while the direction's
	// carrier was down (flap schedule), distinct from loss-model drops.
	DropCarrier = 3
)

// EvTCPRetransmit kinds (event argument A).
const (
	RetxRTO  = 0 // retransmission-timeout recovery
	RetxFast = 1 // fast retransmit (3 dup ACKs)
	RetxSACK = 2 // SACK-directed hole fill
)

var evNames = [evTypeCount]string{
	EvNetemEnqueue:  "netem.enqueue",
	EvNetemDrop:     "netem.drop",
	EvNicTxBurst:    "nic.tx_burst",
	EvNicRxBurst:    "nic.rx_burst",
	EvDevRxBurst:    "dpdk.rx_burst",
	EvDevTxBurst:    "dpdk.tx_burst",
	EvTCPState:      "tcp.state",
	EvTCPRetransmit: "tcp.retransmit",
	EvTCPCwnd:       "tcp.cwnd",
	EvTCPAccept:     "tcp.accept",
	EvTCPSynDrop:    "tcp.syn_drop",
	EvGateCrossing:  "gate.crossing",
	EvUDPDrop:       "udp.drop",
	EvAppRequest:    "app.request",
	EvFault:         "faultplane.fault",
	EvRestart:       "faultplane.restart",
	EvLinkCarrier:   "netem.carrier",
}

var evLayers = [evTypeCount]string{
	EvNetemEnqueue:  "netem",
	EvNetemDrop:     "netem",
	EvNicTxBurst:    "nic",
	EvNicRxBurst:    "nic",
	EvDevRxBurst:    "dpdk",
	EvDevTxBurst:    "dpdk",
	EvTCPState:      "fstack",
	EvTCPRetransmit: "fstack",
	EvTCPCwnd:       "fstack",
	EvTCPAccept:     "fstack",
	EvTCPSynDrop:    "fstack",
	EvGateCrossing:  "intravisor",
	EvUDPDrop:       "fstack",
	EvAppRequest:    "app",
	EvFault:         "faultplane",
	EvRestart:       "faultplane",
	EvLinkCarrier:   "netem",
}

// String names the event type ("layer.event").
func (t EventType) String() string {
	if int(t) < len(evNames) {
		return evNames[t]
	}
	return "unknown"
}

// Layer names the stack layer the event type belongs to.
func (t EventType) Layer() string {
	if int(t) < len(evLayers) {
		return evLayers[t]
	}
	return "unknown"
}

// Event is one fixed-size flight-recorder record. TS is virtual
// nanoseconds; A, B, C carry per-type arguments; Src identifies the
// emitting component within its layer (port index, stack/shard id,
// link direction — assigned by the testbed wiring).
type Event struct {
	TS      int64
	A, B, C int64
	Type    EventType
	Src     uint16
}

// Trace is the flight recorder: a fixed-capacity ring of events that
// keeps the most recent ones. Recording never allocates; when the ring
// is full the oldest event is overwritten, which is exactly what a
// flight recorder should do.
type Trace struct {
	ring  []Event
	next  int
	total uint64
}

// minTraceCapacity keeps degenerate capacities usable.
const minTraceCapacity = 64

// NewTrace builds a recorder holding up to capacity events.
func NewTrace(capacity int) *Trace {
	if capacity < minTraceCapacity {
		capacity = minTraceCapacity
	}
	return &Trace{ring: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest when full. Nil-safe
// so hook sites can record through an unguarded pointer if they want —
// though the idiomatic guard `if tr != nil` skips the call entirely.
func (t *Trace) Record(ts int64, typ EventType, src uint16, a, b, c int64) {
	if t == nil {
		return
	}
	t.ring[t.next] = Event{TS: ts, A: a, B: b, C: c, Type: typ, Src: src}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
}

// Total returns how many events were ever recorded (including ones the
// ring has since overwritten).
func (t *Trace) Total() uint64 { return t.total }

// Len returns how many events the ring currently holds.
func (t *Trace) Len() int {
	if t.total >= uint64(len(t.ring)) {
		return len(t.ring)
	}
	return int(t.total)
}

// Snapshot copies the held events in chronological order.
func (t *Trace) Snapshot() []Event {
	out := make([]Event, 0, t.Len())
	if t.total >= uint64(len(t.ring)) {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}

package fstack

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/fstack/connscale"
	"repro/internal/hostos"
	"repro/internal/obs"
)

// tcpState is the RFC 793 connection state.
type tcpState uint8

const (
	tcpClosed tcpState = iota
	tcpSynSent
	tcpSynReceived
	tcpEstablished
	tcpFinWait1
	tcpFinWait2
	tcpCloseWait
	tcpClosing
	tcpLastAck
	tcpTimeWait
)

// stateFacts is what a state means to the rest of the stack, as bits.
type stateFacts uint8

const (
	sends     stateFacts = 1 << iota // output and the persist timer may transmit
	writable                         // the application may queue bytes, and CLOSE
	receives                         // the peer may still send data: a window update is owed
	finQueued                        // after CLOSE: our FIN takes finSeq once every queued byte is out
	peerFin                          // the peer's FIN is sequenced into rcvNxt
)

// closeEvent is one of the three events that move a connection from
// ESTABLISHED toward CLOSED.
type closeEvent uint8

const (
	evClose    closeEvent = iota // the application's CLOSE (RFC 793 §3.9)
	evPeerFin                    // the peer's FIN sequenced into rcvNxt
	evFinAcked                   // the peer acknowledged our FIN
	nCloseEvents
)

// tcpStates is RFC 793's state machine as a table: each state's name,
// its facts, and where each close event leads from it — to the state
// itself where the event moves nothing. advance takes its edges; the
// only other moves are the handshake's (CLOSED → SYN_SENT or SYN_RCVD
// → ESTABLISHED) and an abort's (any state → CLOSED).
var tcpStates = [...]struct {
	name  string
	facts stateFacts
	next  [nCloseEvents]tcpState // after CLOSE, the peer's FIN, our FIN acked
}{
	tcpClosed:      {"CLOSED", 0, [...]tcpState{tcpClosed, tcpClosed, tcpClosed}},
	tcpSynSent:     {"SYN_SENT", 0, [...]tcpState{tcpSynSent, tcpSynSent, tcpSynSent}},
	tcpSynReceived: {"SYN_RCVD", 0, [...]tcpState{tcpSynReceived, tcpSynReceived, tcpSynReceived}},
	tcpEstablished: {"ESTABLISHED", sends | writable | receives, [...]tcpState{tcpFinWait1, tcpCloseWait, tcpEstablished}},
	tcpFinWait1:    {"FIN_WAIT_1", sends | receives | finQueued, [...]tcpState{tcpFinWait1, tcpClosing, tcpFinWait2}},
	tcpFinWait2:    {"FIN_WAIT_2", receives | finQueued, [...]tcpState{tcpFinWait2, tcpTimeWait, tcpFinWait2}},
	tcpCloseWait:   {"CLOSE_WAIT", sends | writable | peerFin, [...]tcpState{tcpLastAck, tcpCloseWait, tcpCloseWait}},
	tcpClosing:     {"CLOSING", sends | finQueued | peerFin, [...]tcpState{tcpClosing, tcpClosing, tcpTimeWait}},
	tcpLastAck:     {"LAST_ACK", sends | finQueued | peerFin, [...]tcpState{tcpLastAck, tcpLastAck, tcpClosed}},
	tcpTimeWait:    {"TIME_WAIT", finQueued | peerFin, [...]tcpState{tcpTimeWait, tcpTimeWait, tcpTimeWait}},
}

func (s tcpState) String() string { return tcpStates[s].name }

// Timer constants (ns).
const (
	// rtoMin is the default retransmission-timer floor. 2 ms is far
	// above the simulated wire RTT and fast enough for tests; stacks
	// whose path includes ms-scale queueing (Scenario 4's CPU-budgeted
	// shards buffer several ms of frames under overload) must raise it
	// via TCPTuning.RTOMinNS or every sender spuriously times out and
	// go-back-N floods the queue it is waiting on.
	rtoMin        = 2e6
	rtoMax        = 1e9   // 1 s
	rtoInitial    = 100e6 // 100 ms before the first RTT sample
	delackTimeout = 500e3 // 500 µs, scaled to the simulated RTTs
	timeWaitDur   = 50e6  // 50 ms (2MSL stand-in)
	synRetries    = 5
	// maxShift is how many timeouts in a row a data resend takes before
	// the connection gives up with ETIMEDOUT (FreeBSD's TCP_MAXRXTSHIFT),
	// and the cap on the zero-window probe's backoff count: 2¹² times any
	// timeout is past rtoMax, so a larger count could not lengthen it.
	maxShift = 12
)

// rexmt is the one retransmission timer (RFC 6298), FreeBSD's
// t_srtt/t_rttvar/t_rxtcur and t_rxtshift: the smoothed round trip, its
// variance and the timeout they set (ns), and the backoffs counted since
// the handshake began, the peer last acked new data, or the zero-window
// probe was armed or ended. A connection
// and a half-open synEntry each embed one; the SYN, the SYN|ACK, a data
// resend and the zero-window probe all back off through it.
type rexmt struct {
	srtt, rttvar, rto uint32
	shift             uint8
}

// sample folds a round-trip sample (ns) into the estimate and sets the
// timeout from it, at least floor and at most rtoMax (RFC 6298 §2). A
// sample ≤ 0 is ignored; one past 2³²−1 ns counts as 2³²−1.
func (r *rexmt) sample(ns, floor int64) {
	if ns <= 0 {
		return
	}
	ns = min(ns, math.MaxUint32)
	srtt, rttvar := int64(r.srtt), int64(r.rttvar)
	if srtt == 0 {
		srtt, rttvar = ns, ns/2
	} else {
		rttvar = (3*rttvar + max(srtt-ns, ns-srtt)) / 4
		srtt = (7*srtt + ns) / 8
	}
	r.srtt, r.rttvar = uint32(srtt), uint32(rttvar)
	r.rto = uint32(min(max(srtt+4*rttvar, floor), rtoMax))
}

// backoff doubles the timeout, to at most rtoMax, for the resend a
// timeout makes (RFC 6298 §5.5), and returns the backoff count.
func (r *rexmt) backoff() uint8 {
	r.rto = min(r.rto*2, rtoMax)
	r.shift = min(r.shift+1, maxShift)
	return r.shift
}

// Buffer sizes (bytes, powers of two). 512 KiB send / 256 KiB receive
// mirror F-Stack's defaults closely enough; without window scaling the
// receive window is capped at 64 KiB regardless. High-BDP paths
// override both via Stack.SetTCPTuning.
const (
	sndBufSize = 512 * 1024
	rcvBufSize = 256 * 1024
	// maxRcvWnd is just below the port's 64 KiB RX packet buffer: the
	// in-flight cap then regulates the bus-limited case by queueing
	// rather than by tail drops (F-Stack tunes the window the same way
	// on window-scaling-less paths). It only binds when window scaling
	// is off — a scaled window is bounded by the receive buffer alone.
	maxRcvWnd = 56 * 1024
)

// rcvRing is the receive ring a new connection gets: the one size both
// its windows and its listener's SYN|ACK window are offered from.
func (t TCPTuning) rcvRing() int { return cmp.Or(t.RcvBufBytes, rcvBufSize) }

// rtoFloor is the retransmission timer's floor.
func (t TCPTuning) rtoFloor() int64 { return cmp.Or(t.RTOMinNS, rtoMin) }

// seqRange is one [start, end) range of sequence space.
type seqRange struct {
	start, end uint32
}

// tcpEndpoint is one side of a connection.
type tcpEndpoint struct {
	IP   IPv4Addr
	Port uint16
}

// fourTuple keys the connection table.
type fourTuple struct {
	local  tcpEndpoint
	remote tcpEndpoint
}

// tcpConn is a TCP connection: the state every segment, timer and call
// of a connection reads, its two socket ring headers inside it. What
// only loss, reordering or a zero window needs is in the cold record,
// which an idle or healthy connection does not hold. Fields are ordered
// by size so no padding falls between them: its size is Scenario 8's
// bytes-per-idle-connection, pinned by TestConnPlaneStructSizes.
type tcpConn struct {
	stk  *Stack
	sk   *socket // owning socket: nil before accept / after close
	cold *tcpCold

	sndBuf sockBuf // r position corresponds to sequence sndUna
	rcvBuf sockBuf

	// The timers' deadlines; 0 is off. rtxAt is the one deadline arm
	// sets: the retransmission's, the zero-window probe's while
	// persisting, and 2MSL's in TIME_WAIT and an idle FIN_WAIT_2.
	rtxAt    int64
	delackAt int64 // pending delayed ack
	seq      uint64

	sndUna   uint32
	sndNxt   uint32
	sndMax   uint32 // highest sequence ever sent (survives go-back-N rewinds)
	sndWnd   uint32 // peer's advertised window
	finSeq   uint32 // sequence number our FIN occupies, fixed by Close (finQueued)
	rcvNxt   uint32
	advWnd   uint32 // last advertised window
	tsRecent uint32 // latest peer TSVal (echoed in TSEcr)
	// The congestion window and slow-start threshold (bytes); cc.go's
	// event methods move them, and unboundedSsthresh bounds both far
	// below 2³².
	cwnd     uint32
	ssthresh uint32
	// obsCwnd is the last congestion window the flight recorder saw
	// (noteCwnd), so the trace only carries changes.
	obsCwnd int32
	sockErr int32 // sticky hostos.Errno (ECONNRESET etc.)
	timerH  connscale.Handle
	rexmt   // RTT estimate, timeout and backoff count, from timestamps
	handshake

	tuple     fourTuple
	state     tcpState
	delackCnt uint8
	cc        ccAlgo // congestion control, from the stack's tuning

	// connection-scale plumbing (stack.go): seq stamps creation order
	// for the poll visit sort; timerH files the earliest armed timer on
	// the stack's timing wheel, which keeps its instant; queued
	// deduplicates visit-list membership; sk and inPending (residence on
	// a listener's accept queue) together gate recycling the struct
	// through the conn arena once removeConn has made it CLOSED.
	queued    bool
	inPending bool
}

// tcpCold is the part of a connection that only loss, reordering or
// CUBIC's congestion avoidance needs: the sender's scoreboard and
// recovery state, the receiver's reassembly runs and CUBIC's epoch. A
// connection takes one from its stack's pool the first time it needs any
// of it and gives it back with its rings (enterTimeWait,
// maybeRecycleConn); a nil record reads as no recovery, nothing parked
// and no CUBIC epoch. The record keeps its slices' capacity between
// connections, so a warm stack's loss episodes allocate nothing.
type tcpCold struct {
	// sender scoreboard: disjoint sorted ranges the peer has SACKed,
	// all within (sndUna, sndMax].
	sacked []seqRange
	// out-of-order runs parked in rcvBuf (sorted, disjoint, non-adjacent)
	rcvOOO []oooRun
	// receiver SACK generation: the most recently arrived out-of-order
	// run leads the block list (RFC 2018 §4).
	lastOOO seqRange
	// CUBIC's epoch (cc.go); untouched on a Reno connection.
	cubic      cubicEpoch
	recoverPt  uint32 // sndMax when recovery or a timeout began (RFC 6582 "recover")
	rtxNxt     uint32 // next hole-fill candidate during SACK recovery
	dupAcks    int32
	inRecovery bool
	// rtoRecover marks recoverPt as a timeout's that no ACK has passed
	// yet: until one does, duplicate ACKs are the go-back resend's
	// echoes and start no fast recovery (RFC 6582 §3.2; FreeBSD's
	// SEQ_LEQ(th_ack, snd_recover)).
	rtoRecover bool
}

// takeCold returns the connection's cold record, taking one from the
// stack's arena on first need.
func (c *tcpConn) takeCold() *tcpCold {
	if c.cold != nil {
		return c.cold
	}
	k := c.stk.coldArena.take()
	*k = tcpCold{sacked: k.sacked[:0], rcvOOO: k.rcvOOO[:0]}
	c.cold = k
	return k
}

// dropCold gives the connection's cold record back to the stack's arena.
func (c *tcpConn) dropCold() {
	if c.cold != nil {
		c.stk.coldArena.put(c.cold)
		c.cold = nil
	}
}

// inRecovery reports whether loss recovery is under way.
func (c *tcpConn) inRecovery() bool { return c.cold != nil && c.cold.inRecovery }

// sacked is the sender's scoreboard (nil without a cold record).
func (c *tcpConn) sacked() []seqRange {
	if c.cold == nil {
		return nil
	}
	return c.cold.sacked
}

// rcvOOO is the receiver's parked runs (nil without a cold record).
func (c *tcpConn) rcvOOO() []oooRun {
	if c.cold == nil {
		return nil
	}
	return c.cold.rcvOOO
}

// is reports whether the connection's state has fact f.
func (c *tcpConn) is(f stateFacts) bool { return tcpStates[c.state].facts&f != 0 }

// advance moves the connection along the table's edge for ev, if the
// state has one: TIME_WAIT is entered through enterTimeWait, CLOSED
// through removeConn.
func (c *tcpConn) advance(ev closeEvent) {
	switch to := tcpStates[c.state].next[ev]; to {
	case c.state:
	case tcpTimeWait:
		c.enterTimeWait()
	case tcpClosed:
		c.stk.removeConn(c)
	default:
		c.setState(to)
	}
}

// handshake is what the two SYNs agreed: the send MSS, and window
// scaling and SACK (RFC 7323 / RFC 2018), each on only if both sides
// offered it. Scaling and SACK are off on a stack with default tuning,
// which keeps the wire behavior of the paper's scenarios bit-identical.
type handshake struct {
	sndMSS    int32 // payload bytes per segment (after options)
	sndWScale uint8 // shift applied to windows the peer advertises
	rcvWScale uint8 // shift applied to windows we advertise
	sackOK    bool  // both sides agreed on SACK
}

// negotiate is the one handshake negotiation, for an active open on the
// peer's SYN|ACK and a passive one on its SYN: the peer's offers in h
// against what the stack's tuning offers (RFC 7323 §2.2, RFC 2018 §3).
// No MSS option leaves MaxSegData; one below minMSS is raised to it.
func (s *Stack) negotiate(h TCPHeader) handshake {
	n := handshake{sndMSS: MaxSegData, sackOK: s.tuning.SACK && h.SACKPermitted}
	if h.MSS != 0 {
		n.sndMSS = int32(min(max(int(h.MSS), minMSS)-tsOptionLen, MaxSegData))
	}
	if s.tuning.WindowScale > 0 && h.HasWS {
		n.sndWScale, n.rcvWScale = h.WScale, s.tuning.WindowScale
	}
	return n
}

// newTCPConn builds a connection in the given state with rings in the
// stack's segment, sized and featured per the stack's TCP tuning. The
// struct comes off the conn arena — a recycled one, the path that makes
// connection churn allocation-free at steady state, or a fresh one.
// Either way one literal sets it, zeroing every field,
// so a newly added field cannot leak state between incarnations. It
// cannot fail: SetTCPTuning admits only ring sizes and an algorithm a
// connection can be built with.
func (s *Stack) newTCPConn(tuple fourTuple) *tcpConn {
	c := s.connArena.take() // a recycled one's rings released by maybeRecycleConn
	ssthresh := uint32(initialSsthresh)
	if s.tuning.WindowScale > 0 {
		ssthresh = unboundedSsthresh
	}
	*c = tcpConn{
		stk:       s,
		tuple:     tuple,
		state:     tcpClosed,
		sndBuf:    sockBuf{size: uint32(cmp.Or(s.tuning.SndBufBytes, sndBufSize))},
		rcvBuf:    sockBuf{size: uint32(s.tuning.rcvRing())},
		handshake: handshake{sndMSS: MaxSegData},
		cwnd:      initialCwnd,
		ssthresh:  ssthresh,
		cc:        s.tuning.algo(),
		rexmt:     rexmt{rto: rtoInitial},
		timerH:    connscale.None,
	}
	return c
}

// maybeRecycleConn returns a CLOSED connection struct to the arena
// once nothing else can reach it: no socket, no accept-queue slot, no
// visit-list membership. Its rings go back to the segment then, and its
// cold record to its arena, not at removeConn: an aborted connection's
// socket may still read what it received.
func (s *Stack) maybeRecycleConn(c *tcpConn) {
	if c.state != tcpClosed || c.inPending || c.sk != nil || c.queued {
		return
	}
	c.sndBuf.release(s.seg)
	c.rcvBuf.release(s.seg)
	c.dropCold()
	s.connArena.put(c)
}

// iss generates the initial send sequence number.
func (s *Stack) iss() uint32 {
	s.issCounter += 64009 // arbitrary odd stride
	return s.issCounter
}

// nowUS is the timestamp-option clock (µs, truncated), for a
// connection's segments and a half-open entry's SYN|ACK alike.
func (s *Stack) nowUS() uint32 { return uint32(s.now() / 1e3) }

// offeredWnd is the one window rule: the window a receive ring with
// free bytes offers under a window-scale shift. Without scaling the
// historical 56 KiB cap applies; with it, the ring is the only bound
// short of the largest value the shifted 16-bit field can carry.
func offeredWnd(free int, shift uint8) uint32 {
	if shift == 0 {
		return uint32(min(free, maxRcvWnd))
	}
	return uint32(min(free, 65535<<shift))
}

// rcvWnd computes the window to advertise.
func (c *tcpConn) rcvWnd() uint32 { return offeredWnd(c.rcvBuf.Free(), c.rcvWScale) }

// peerWnd decodes the peer's advertised window: scaled except on SYN
// segments (RFC 7323 §2.2).
func (c *tcpConn) peerWnd(h TCPHeader) uint32 {
	if h.Flags&TCPSyn != 0 {
		return uint32(h.Window)
	}
	return uint32(h.Window) << c.sndWScale
}

// --- output ---

// sendSegment emits one segment with the given flags and payload taken
// from sndBuf at sequence seq.
func (c *tcpConn) sendSegment(flags uint8, seq uint32, payloadLen int, withMSS bool) bool {
	h := TCPHeader{
		SrcPort: c.tuple.local.Port,
		DstPort: c.tuple.remote.Port,
		Seq:     seq,
		Ack:     c.rcvNxt,
		Flags:   flags,
		HasTS:   true,
		TSVal:   c.stk.nowUS(),
		TSEcr:   c.tsRecent,
	}
	wnd := c.rcvWnd()
	if flags&TCPSyn != 0 {
		// SYN windows are never scaled; a SYN also offers what the
		// stack's tuning enables (MSS is the caller's withMSS, below).
		h.Window = uint16(min(wnd, 65535))
		h.HasWS = c.stk.tuning.WindowScale > 0
		h.WScale = c.stk.tuning.WindowScale
		h.SACKPermitted = c.stk.tuning.SACK
	} else {
		h.Window = uint16(wnd >> c.rcvWScale)
		// SACK blocks ride pure ACKs only: a full-MSS data segment has
		// no option space left.
		if c.sackOK && payloadLen == 0 && flags&TCPRst == 0 {
			h.SACK = c.sackBlocks()
		}
	}
	if withMSS {
		h.MSS = MSSDefault
	}
	hl := h.encodedLen()
	total := hl + payloadLen
	// The segment leaves by the port that owns the local address.
	nif := c.stk.nifByIP(c.tuple.local.IP)
	m, frame := c.stk.txAlloc(IPv4HeaderLen + total)
	if m == nil {
		// Pool or ring exhausted: the next poll's visit retries the send.
		c.stk.queueVisit(c)
		return false
	}
	tcpSeg := frame[EthHeaderLen+IPv4HeaderLen:]
	if payloadLen > 0 {
		off := int(seq - c.sndUna)
		if _, err := c.sndBuf.peek(c.stk.seg, off, tcpSeg[hl:hl+payloadLen]); err != nil {
			m.Free()
			c.stk.queueVisit(c)
			return false
		}
	}
	PutTCPHeader(tcpSeg, h, c.tuple.local.IP, c.tuple.remote.IP, total)
	ok := c.stk.sendIPv4(nif, m, frame, c.tuple.remote.IP, ProtoTCP, total)
	if ok {
		shift := c.rcvWScale
		if flags&TCPSyn != 0 {
			shift = 0
		}
		c.advWnd = uint32(h.Window) << shift
	} else {
		c.stk.queueVisit(c)
	}
	return ok
}

// sendAckNow emits a bare ACK.
func (c *tcpConn) sendAckNow() {
	c.delackCnt = 0
	c.delackAt = 0
	c.sendSegment(TCPAck, c.sndNxt, 0, false)
}

// arm sets the connection's deadline d ns from now and files it on the
// stack's timing wheel.
func (c *tcpConn) arm(d int64) {
	c.rtxAt = c.stk.now() + d
	c.stk.noteTimer(c, c.rtxAt)
}

// inflight returns un-acknowledged bytes.
func (c *tcpConn) inflight() int { return int(c.sndNxt - c.sndUna) }

// lostBytes estimates bytes presumed lost and not yet refilled: the
// holes between rtxNxt and the scoreboard top (RFC 6675's IsLost,
// applied to the whole SACKed region). Holes below rtxNxt have been
// retransmitted and are back in flight. Like sackedBytesBelow it only
// counts sequence space below sndNxt, so a timeout rewind cannot turn
// the whole scoreboard into send budget.
func (c *tcpConn) lostBytes() int {
	sacked := c.sacked()
	if len(sacked) == 0 {
		return 0
	}
	top := sacked[len(sacked)-1].end
	if seqGT(top, c.sndNxt) {
		top = c.sndNxt
	}
	seq := c.cold.rtxNxt
	if seqLT(seq, c.sndUna) {
		seq = c.sndUna
	}
	if !seqLT(seq, top) {
		return 0
	}
	lost := int(top - seq)
	for _, r := range sacked {
		s, e := r.start, r.end
		if seqLT(s, seq) {
			s = seq
		}
		if seqGT(e, top) {
			e = top
		}
		if seqLT(s, e) {
			lost -= int(e - s)
		}
	}
	return max(lost, 0)
}

// pipe estimates bytes actually in the network: unacknowledged, minus
// what the peer already holds per its SACK blocks, minus un-refilled
// holes presumed lost (RFC 6675 §4). Without a scoreboard it is plain
// in-flight. Only scoreboard state below sndNxt counts, so after a
// timeout rewind (sndNxt back at sndUna, scoreboard retained) the
// pipe reads 0 and the resend pass is paced by cwnd's one-MSS slow
// start restart instead of bursting the whole lost window.
func (c *tcpConn) pipe() int {
	return c.inflight() - c.sackedBytesBelow(c.sndNxt) - c.lostBytes()
}

// output transmits whatever the windows allow. Called from the loop and
// after API writes.
func (c *tcpConn) output() {
	if !c.is(sends) {
		return
	}
	wnd := min(int(c.sndWnd), int(c.cwnd))
	for {
		// After a timeout rewind sndNxt sits below sndMax; the
		// scoreboard lets the resend pass skip runs the peer already
		// holds instead of go-back-N'ing through them.
		retransmitting := seqLT(c.sndNxt, c.sndMax)
		limit := int(c.sndMSS)
		if retransmitting {
			c.sndNxt, limit = c.nextUnsacked(c.sndNxt, limit)
			retransmitting = seqLT(c.sndNxt, c.sndMax)
		}
		// Bytes not yet sent; -1 while our FIN is in flight.
		avail := c.sndBuf.Len() - int(c.sndNxt-c.sndUna)
		space := wnd - c.pipe()
		n := min(min(avail, space), limit)
		if n <= 0 {
			break
		}
		flags := TCPAck
		if avail == n { // last segment of what we have: push
			flags |= TCPPsh
		}
		if !c.sendSegment(flags, c.sndNxt, n, false) {
			break
		}
		if retransmitting {
			c.stk.stats.Retransmit++
			c.stk.stats.RTORetransmit++
			c.noteRetx(obs.RetxRTO, c.sndNxt)
		}
		c.sndNxt += uint32(n)
		c.sndMax = seqMax(c.sndMax, c.sndNxt)
		c.delackCnt = 0
		c.delackAt = 0
		if c.rtxAt == 0 {
			c.arm(int64(c.rto))
		}
	}
	// FIN, once all data is out: Close fixed its sequence number and
	// state, so sending it changes neither.
	if c.is(finQueued) && c.sndNxt == c.finSeq && c.inflight() <= wnd {
		if c.sendSegment(TCPFin|TCPAck, c.sndNxt, 0, false) {
			c.sndNxt++
			c.sndMax = seqMax(c.sndMax, c.sndNxt)
			if c.rtxAt == 0 {
				c.arm(int64(c.rto))
			}
		}
	}
	// A zero peer window with data waiting and nothing in flight means
	// the peer's window update is the only event that can restart this
	// sender — and a lost update would stall the connection forever. Arm
	// the zero-window probe (RFC 9293 §3.8.6.1) on the one deadline,
	// which nothing else holds now (FreeBSD's tcp_setpersist).
	if c.rtxAt == 0 && c.inflight() == 0 && c.persisting() {
		c.shift = 0 // an episode counts its own probes
		c.arm(c.persistInterval())
	}
}

// persisting reports whether the deadline is the zero-window probe's: a
// sending state, a zero peer window and bytes queued. A window retracted
// under bytes in flight persists too: a timeout probes it rather than
// resending into it.
func (c *tcpConn) persisting() bool {
	return c.is(sends) && c.sndWnd == 0 && c.sndBuf.Len() > 0
}

// persistInterval is the current zero-window probe backoff: the RTO
// doubled per backoff counted, capped like the RTO itself.
func (c *tcpConn) persistInterval() int64 {
	return min(int64(c.rto)<<c.shift, rtoMax)
}

// onPersist fires when a persisting connection's deadline expires: force
// one byte past the zero window. The peer must answer any
// in-window-or-not segment with an ACK carrying its current window,
// which repairs a lost window update. The probe byte rides at sndUna so
// repeated probes stay idempotent; the first probe advances sndNxt over
// it so a peer that has room can accept it.
func (c *tcpConn) onPersist() {
	if c.sendSegment(TCPAck, c.sndUna, 1, false) {
		c.stk.stats.PersistProbes++
		if c.sndNxt == c.sndUna {
			c.sndNxt++
			c.sndMax = seqMax(c.sndMax, c.sndNxt)
		}
	}
	c.shift = min(c.shift+1, maxShift)
	c.arm(c.persistInterval())
}

// --- input ---

// --- sender scoreboard (RFC 2018) ---

// sackUpdate merges the peer's SACK blocks into the scoreboard,
// ignoring anything outside (sndUna, sndMax].
func (c *tcpConn) sackUpdate(blocks []SACKBlock) {
	k := c.takeCold()
	for _, b := range blocks {
		if !seqLT(b.Start, b.End) || seqLE(b.End, c.sndUna) || seqGT(b.End, c.sndMax) {
			continue
		}
		r := seqRange{start: b.Start, end: b.End}
		if seqLT(r.start, c.sndUna) {
			r.start = c.sndUna
		}
		pos := 0
		for pos < len(k.sacked) && seqLT(k.sacked[pos].start, r.start) {
			pos++
		}
		k.sacked = append(k.sacked, seqRange{})
		copy(k.sacked[pos+1:], k.sacked[pos:])
		k.sacked[pos] = r
		// Merge overlapping and adjacent neighbors back into a
		// disjoint sorted list.
		merged := k.sacked[:1]
		for _, s := range k.sacked[1:] {
			last := &merged[len(merged)-1]
			if seqLE(s.start, last.end) {
				last.end = seqMax(last.end, s.end)
			} else {
				merged = append(merged, s)
			}
		}
		k.sacked = merged
	}
}

// sackPrune drops scoreboard state the cumulative ACK has overtaken.
func (c *tcpConn) sackPrune() {
	k := c.cold
	if k == nil {
		return
	}
	keep := k.sacked[:0]
	for _, r := range k.sacked {
		if seqLE(r.end, c.sndUna) {
			continue
		}
		if seqLT(r.start, c.sndUna) {
			r.start = c.sndUna
		}
		keep = append(keep, r)
	}
	k.sacked = keep
	if seqLT(k.rtxNxt, c.sndUna) {
		k.rtxNxt = c.sndUna
	}
}

// sackedBytesBelow sums the scoreboard under a ceiling — after a
// timeout rewind only the part below sndNxt may offset the pipe, or
// the whole lost window would be resent in one burst.
func (c *tcpConn) sackedBytesBelow(ceil uint32) int {
	t := 0
	for _, r := range c.sacked() {
		e := r.end
		if seqGT(e, ceil) {
			e = ceil
		}
		if seqLT(r.start, e) {
			t += int(e - r.start)
		}
	}
	return t
}

// nextUnsacked skips seq past any SACKed run it falls into and caps a
// segment at want bytes so it cannot overlap the next SACKed run.
func (c *tcpConn) nextUnsacked(seq uint32, want int) (uint32, int) {
	for _, r := range c.sacked() {
		if seqGE(seq, r.start) && seqLT(seq, r.end) {
			seq = r.end
			continue
		}
		if seqLT(seq, r.start) {
			if gap := int(r.start - seq); gap < want {
				want = gap
			}
			break
		}
	}
	return seq, want
}

// retransmitHead resends one segment at the front of the unacked data,
// the RFC 6582 partial-ACK / three-dup-ACK retransmission for peers
// without SACK.
func (c *tcpConn) retransmitHead() {
	n := min(min(int(c.sndMSS), c.sndBuf.Len()), int(c.sndNxt-c.sndUna))
	if n > 0 && c.sendSegment(TCPAck, c.sndUna, n, false) {
		c.stk.stats.Retransmit++
		c.stk.stats.FastRetransmit++
		c.noteRetx(obs.RetxFast, c.sndUna)
	}
	c.arm(int64(c.rto))
}

// sackFill transmits whatever the pipe has room for during recovery
// (RFC 6675's NextSeg loop): hole fills below the scoreboard top
// first, then new data. Called on every ACK while in recovery — a
// multi-loss window fills all its holes within one round trip instead
// of one per returning ACK.
func (c *tcpConn) sackFill() {
	k := c.cold
	for len(k.sacked) > 0 && c.pipe() < int(c.cwnd) {
		top := k.sacked[len(k.sacked)-1].end
		seq := k.rtxNxt
		if seqLT(seq, c.sndUna) {
			seq = c.sndUna
		}
		seq, limit := c.nextUnsacked(seq, int(c.sndMSS))
		if !seqLT(seq, top) {
			break // no hole left below the scoreboard top
		}
		n := min(min(limit, c.sndBuf.Len()-int(seq-c.sndUna)), int(top-seq))
		if n <= 0 {
			break
		}
		if !c.sendSegment(TCPAck, seq, n, false) {
			return // TX ring full: the next ACK retries
		}
		c.stk.stats.Retransmit++
		c.stk.stats.SACKRetransmit++
		c.noteRetx(obs.RetxSACK, seq)
		k.rtxNxt = seq + uint32(n)
		c.arm(int64(c.rto))
	}
	// Pipe room left over goes to new data (the limited-transmit
	// generalization); output() shares the same pipe arithmetic.
	c.output()
}

// enterRecovery starts loss recovery off the third duplicate ACK:
// scoreboard-guided when SACK is negotiated, RFC 6582 NewReno
// otherwise.
func (c *tcpConn) enterRecovery() {
	k := c.cold
	k.inRecovery = true
	k.recoverPt = c.sndMax
	// The pipe estimate reads rtxNxt (via lostBytes), so it must be
	// taken before the hole-fill cursor resets — the order the
	// pre-refactor inline code used.
	pipe := c.pipe()
	k.rtxNxt = c.sndUna
	c.ccEnterRecovery(pipe)
	c.noteCwnd()
	if c.sackOK {
		c.sackFill()
	} else {
		c.retransmitHead()
	}
}

// handleAck processes an acceptable ACK.
func (c *tcpConn) handleAck(h TCPHeader) {
	ack := h.Ack
	if c.sackOK && len(h.SACK) > 0 {
		c.sackUpdate(h.SACK)
	}
	if seqLE(ack, c.sndUna) {
		// A zero-window probe's rejection echoes ack == sndUna with the
		// same (zero) window: a probe answer, not a loss signal.
		// Nor is a SYN or FIN (RFC 5681 §2 (c)): a resent SYN|ACK or
		// a FIN echoes the ack a duplicate would.
		if ack == c.sndUna && c.inflight() > 0 && c.peerWnd(h) == c.sndWnd &&
			c.sndWnd != 0 && h.Flags&(TCPSyn|TCPFin) == 0 {
			k := c.takeCold()
			k.dupAcks++
			c.stk.stats.DupAcks++
			switch {
			case k.dupAcks == 3 && !k.inRecovery && !k.rtoRecover:
				c.enterRecovery()
			case k.inRecovery && c.sackOK:
				c.sackFill()
			case k.inRecovery:
				c.ccDupAck() // NewReno window inflation
				c.output()
			}
		}
		if seqGE(ack, c.sndUna) {
			persisting := c.persisting()
			c.sndWnd = c.peerWnd(h)
			if persisting && c.sndWnd > 0 {
				// The window update the probes were fishing for: leave
				// persist and disown whatever is still unacked, a probe
				// byte or bytes sent before the window was retracted
				// (sndMax too, so the in-order resend is fresh data to
				// the stats, not a phantom RTO retransmit). If the
				// peer did take them, the resend is an overlap its
				// receiver already handles.
				c.rtxAt = 0
				c.sndNxt = c.sndUna
				c.sndMax = c.sndUna
				c.shift = 0
			}
		}
		return
	}
	if seqGT(ack, c.sndMax) {
		c.sendAckNow() // acking data we never sent: tell them where we are
		return
	}
	// New data acknowledged.
	acked := int(ack - c.sndUna)
	dataAcked := acked
	if c.is(finQueued) && seqGT(ack, c.finSeq) {
		// The FIN consumed one sequence number.
		dataAcked--
	}
	if dataAcked > 0 {
		if err := c.sndBuf.consume(dataAcked); err != nil {
			c.abort(hostos.EINVAL)
			return
		}
	}
	c.sndUna = ack
	c.shift = 0 // progress: the next timeout backs off from the start
	// After a timeout rewind the peer may acknowledge past sndNxt:
	// skip ahead rather than resending what it already has.
	if seqGT(ack, c.sndNxt) {
		c.sndNxt = ack
	}
	c.sackPrune()
	c.sndWnd = c.peerWnd(h)
	if k := c.cold; k != nil {
		k.dupAcks = 0
		k.rtoRecover = k.rtoRecover && seqLE(ack, k.recoverPt)
	}
	if h.HasTS && h.TSEcr != 0 {
		sample := (int64(c.stk.nowUS()) - int64(h.TSEcr)) * 1e3
		c.sample(sample, c.stk.tuning.rtoFloor())
		if c.stk.obsRTT != nil && sample > 0 {
			c.stk.obsRTT.Record(sample)
		}
	}
	// Congestion control: classify the ACK and report the event.
	switch {
	case c.inRecovery() && seqLT(ack, c.cold.recoverPt) && c.sackOK:
		// Partial ACK with SACK: keep cwnd pinned at ssthresh and let
		// the pipe govern what the scoreboard refills (RFC 6675 §5).
		c.sackFill()
	case c.inRecovery() && seqLT(ack, c.cold.recoverPt):
		// Partial ACK (RFC 6582): the next hole starts at the new
		// sndUna; resend it immediately, deflate instead of grow.
		c.retransmitHead()
		c.ccPartialAck(dataAcked)
	case c.inRecovery():
		// Full ACK at or past the recovery point: done.
		c.cold.inRecovery = false
		c.ccExitRecovery()
	default:
		c.ccAck(dataAcked) // slow start / avoidance
	}
	c.noteCwnd()
	if c.inflight() == 0 {
		c.rtxAt = 0
	} else {
		c.arm(int64(c.rto))
	}
	// Our FIN is acked once sndUna is past finSeq; a timeout rewind
	// requeues it, so it is in flight only while sndNxt is past finSeq.
	if c.is(finQueued) && seqGT(c.sndUna, c.finSeq) {
		c.advance(evFinAcked)
	}
}

// onRTO fires when the retransmission timer expires: rewind and resend
// with exponential backoff (RFC 6298 §5). With SACK negotiated the
// scoreboard survives the timeout (RFC 2018 §8), so the resend pass in
// output() skips runs the peer already holds; without it this is plain
// go-back-N. The maxShift-th timeout with no progress between gives up
// with ETIMEDOUT, as the SYN's does after synRetries.
func (c *tcpConn) onRTO() {
	if c.state == tcpSynSent {
		if c.backoff() > synRetries {
			c.abort(hostos.ETIMEDOUT)
			return
		}
		c.sendSegment(TCPSyn, c.sndUna, 0, true)
		c.arm(int64(c.rto))
		return
	}
	if c.inflight() == 0 { // a FIN in flight counts: it has a sequence number
		c.rtxAt = 0
		return
	}
	if c.backoff() == maxShift {
		c.stk.stats.TimeoutDrops++
		c.abort(hostos.ETIMEDOUT)
		return
	}
	c.ccRTO(c.pipe())
	c.noteCwnd()
	k := c.takeCold()
	k.dupAcks = 0
	k.inRecovery = false
	k.recoverPt, k.rtoRecover = c.sndMax, true
	// Rewind and let output() resend (it classifies the resends and
	// skips SACKed runs, and requeues a FIN the rewind passed below).
	c.sndNxt = c.sndUna
	c.arm(int64(c.rto))
	c.output()
}

// oooRun is one contiguous run of out-of-order bytes parked for
// reassembly: sequence range [start, end). The bytes sit in the receive
// ring itself, at offset seq-rcvNxt past its write point, where the
// in-order stream will reach them.
type oooRun struct {
	start, end uint32
}

// block is the run as RFC 2018 reports it.
func (r oooRun) block() SACKBlock { return SACKBlock{Start: r.start, End: r.end} }

// oooMaxRuns bounds how many runs a connection parks for reassembly
// (FreeBSD's net.inet.tcp.reass.maxqueuelen analog): one per full
// segment of 192 KiB, raised to one per full segment of a larger ring.
// It bounds runs, not arrivals: an arrival that extends or fills
// between runs costs nothing, so a receiver takes every in-window
// segment a sender's short writes produce, and a hostile peer's
// one-byte islands stop at the budget. Parked bytes need no budget of
// their own: the window check in oooInsert keeps every one inside the
// receive ring's free space.
const oooMaxRuns = 192 * 1024 / MaxSegData

// oooRunCap is the connection's run budget.
func (c *tcpConn) oooRunCap() int {
	return max(oooMaxRuns, int(c.rcvBuf.size)/MaxSegData)
}

// sackBlocks builds the SACK option content: the run holding the most
// recent arrival first (RFC 2018 §4), then the remaining runs in
// sequence order, capped at what fits beside the timestamps option. The
// parked runs are the blocks; the result lives in stack-owned scratch,
// valid until the next call.
func (c *tcpConn) sackBlocks() []SACKBlock {
	runs := c.rcvOOO()
	if len(runs) == 0 {
		return nil
	}
	last := c.cold.lastOOO
	first := 0
	for i, r := range runs {
		if seqLE(r.start, last.start) && seqLT(last.start, r.end) {
			first = i
			break
		}
	}
	out := append(c.stk.sackTx[:0], runs[first].block())
	for i := 0; i < len(runs) && len(out) < MaxSACKBlocks; i++ {
		if i != first {
			out = append(out, runs[i].block())
		}
	}
	return out
}

// oooInsert parks an out-of-order segment. The bytes no run holds yet
// are stored in the receive ring (new data loses on overlap — the copy
// we already hold is as good), and every run the segment overlaps or
// abuts coalesces with it, so the list stays sorted, disjoint and
// non-adjacent. A refused segment is counted; the sender retransmits.
func (c *tcpConn) oooInsert(seq uint32, payload []byte) {
	k := c.takeCold()
	end := seq + uint32(len(payload))
	// Beyond what we could ever buffer. This is also what keeps every run
	// inside the ring's free space: run.end <= rcvNxt + Free().
	if seqGT(end, c.rcvNxt+uint32(c.rcvBuf.Free())) {
		c.stk.stats.ReassDrops++
		return
	}
	// runs[lo:hi] are the runs the segment overlaps or abuts. An arrival
	// usually extends the newest run, so the search starts at the tail.
	runs := k.rcvOOO
	hi := len(runs)
	for hi > 0 && seqGT(runs[hi-1].start, end) {
		hi--
	}
	lo := hi
	for lo > 0 && seqGE(runs[lo-1].end, seq) {
		lo--
	}
	if lo == hi && len(runs) >= c.oooRunCap() {
		c.stk.stats.ReassDrops++ // a new run past the budget
		return
	}
	// Store the gaps between those runs; at is the first byte of the
	// segment not known to be held. m is the run all of it coalesces into.
	m := oooRun{start: seq, end: end}
	if lo < hi && seqLT(runs[lo].start, seq) {
		m.start = runs[lo].start
	}
	stored := false
	at := seq
	for i := lo; i <= hi; i++ {
		gapEnd := end
		if i < hi {
			gapEnd = runs[i].start
		}
		if seqLT(at, gapEnd) {
			if err := c.rcvBuf.writeAt(c.stk.seg, int(at-c.rcvNxt), payload[at-seq:gapEnd-seq]); err != nil {
				c.abort(hostos.ENOMEM)
				return
			}
			stored = true
		}
		if i < hi {
			at = seqMax(at, runs[i].end)
		}
	}
	if !stored {
		return // every byte already held
	}
	m.end = seqMax(end, at)
	k.rcvOOO = slices.Replace(runs, lo, hi, m)
}

// oooDrain passes the receive ring's write point over every parked run
// the in-order stream has reached; the bytes are already in place.
func (c *tcpConn) oooDrain() {
	k := c.cold
	if k == nil {
		return
	}
	n := 0
	for _, r := range k.rcvOOO {
		if seqGT(r.start, c.rcvNxt) {
			break // still a hole
		}
		if seqGT(r.end, c.rcvNxt) { // else stale: delivered in order meanwhile
			if err := c.rcvBuf.commit(int(r.end - c.rcvNxt)); err != nil {
				c.abort(hostos.ENOMEM)
				return
			}
			c.rcvNxt = r.end
		}
		n++
	}
	k.rcvOOO = slices.Delete(k.rcvOOO, 0, n)
}

// acceptData sequences payload into the receive buffer, parking
// out-of-order segments for reassembly.
func (c *tcpConn) acceptData(h TCPHeader, payload []byte) {
	if len(payload) == 0 {
		return
	}
	if h.Seq != c.rcvNxt {
		if seqGT(h.Seq, c.rcvNxt) {
			c.oooInsert(h.Seq, payload)
			if c.state == tcpClosed {
				return // parking could not back the ring
			}
			// The dup-ACK below leads its SACK list with this run.
			c.cold.lastOOO = seqRange{start: h.Seq, end: h.Seq + uint32(len(payload))}
		} else if seqGT(h.Seq+uint32(len(payload)), c.rcvNxt) {
			// Partial overlap with delivered data: take the new tail.
			tail := payload[c.rcvNxt-h.Seq:]
			n := min(len(tail), c.rcvBuf.Free())
			if n > 0 {
				if _, err := c.rcvBuf.writeFrom(c.stk.seg, tail[:n]); err != nil {
					c.abort(hostos.ENOMEM)
					return
				}
				c.rcvNxt += uint32(n)
				c.oooDrain()
			}
		}
		// A gap (or duplicate) demands an immediate dup-ack.
		c.sendAckNow()
		return
	}
	n := min(len(payload), c.rcvBuf.Free())
	if n > 0 {
		if _, err := c.rcvBuf.writeFrom(c.stk.seg, payload[:n]); err != nil {
			c.abort(hostos.ENOMEM)
			return
		}
		c.rcvNxt += uint32(n)
	}
	if n < len(payload) {
		// Window overrun: ack what fit.
		c.sendAckNow()
		return
	}
	filled := len(c.rcvOOO()) > 0
	c.oooDrain()
	if filled {
		// Filling a hole: ack immediately so the sender exits recovery.
		c.sendAckNow()
		return
	}
	// Delayed ACK: every second segment, or on timeout.
	c.delackCnt++
	if c.delackCnt >= 2 {
		c.sendAckNow()
	} else if c.delackAt == 0 {
		c.delackAt = c.stk.now() + delackTimeout
		c.stk.noteTimer(c, c.delackAt)
	}
}

// enterTimeWait parks the connection for 2MSL, keeping only what it
// needs to answer a retransmitted FIN. Its rings go back to the segment
// and its cold record to its arena (FreeBSD's tcp_twstart): TIME_WAIT
// follows Close, our FIN is acknowledged and the peer's is sequenced, so
// nothing reads or writes either ring again, and nothing is left to
// recover or retransmit — the deadline is 2MSL's instead.
func (c *tcpConn) enterTimeWait() {
	c.setState(tcpTimeWait)
	c.arm(timeWaitDur)
	c.sndBuf.release(c.stk.seg)
	c.rcvBuf.release(c.stk.seg)
	c.dropCold()
}

// setState transitions the connection. Every state change goes through
// here so the flight recorder sees the complete transition sequence —
// and so epoll hears of it: the state decides EPOLLOUT and EPOLLHUP, and
// abort latches sockErr (EPOLLERR) just before coming here.
func (c *tcpConn) setState(s tcpState) {
	if tr := c.stk.obsTr; tr != nil && s != c.state {
		tr.Record(c.stk.now(), obs.EvTCPState, c.stk.obsSrc,
			int64(c.state), int64(s), int64(c.tuple.local.Port))
	}
	c.state = s
	c.wake()
}

// noteRetx records one retransmission event (kind is obs.RetxRTO /
// RetxFast / RetxSACK). The stack's counters remain the source of
// truth for stats; the event adds when and which sequence to the trace.
func (c *tcpConn) noteRetx(kind int64, seq uint32) {
	if tr := c.stk.obsTr; tr != nil {
		tr.Record(c.stk.now(), obs.EvTCPRetransmit, c.stk.obsSrc,
			kind, int64(seq), int64(c.tuple.local.Port))
	}
}

// noteCwnd emits a cwnd counter sample when the congestion window moved
// since the last note — called after every congestion-control decision
// point, so the exported trace draws the full cwnd curve.
func (c *tcpConn) noteCwnd() {
	tr := c.stk.obsTr
	if tr == nil {
		return
	}
	if w := c.cwnd; int32(w) != c.obsCwnd {
		c.obsCwnd = int32(w)
		tr.Record(c.stk.now(), obs.EvTCPCwnd, c.stk.obsSrc,
			int64(w), 0, int64(c.tuple.local.Port))
	}
}

// err is the connection's sticky error (hostos.OK until abort).
func (c *tcpConn) err() hostos.Errno { return hostos.Errno(c.sockErr) }

// abort kills the connection with a sticky error.
func (c *tcpConn) abort(errno hostos.Errno) {
	c.sockErr = int32(errno)
	c.rtxAt = 0
	c.stk.removeConn(c)
}

// sendRST emits a reset for this connection.
func (c *tcpConn) sendRST() {
	c.sendSegment(TCPRst|TCPAck, c.sndNxt, 0, false)
}

// input processes one inbound segment for this connection.
func (c *tcpConn) input(h TCPHeader, payload []byte) {
	if h.HasTS {
		c.tsRecent = h.TSVal
	}
	if h.Flags&TCPRst != 0 {
		if c.state == tcpSynSent {
			if h.Flags&TCPAck == 0 || h.Ack != c.sndNxt {
				return // RST not for our SYN
			}
		} else if h.Seq-c.rcvNxt >= max(c.advWnd, 1) {
			// Outside rcvNxt ≤ seq < rcvNxt+window: not from the peer
			// that holds this connection (RFC 9293 §3.10.7.4).
			c.stk.stats.BadRsts++
			return
		}
		c.abort(hostos.ECONNRESET)
		return
	}
	switch c.state {
	case tcpSynSent:
		if h.Flags&TCPSyn == 0 || h.Flags&TCPAck == 0 || h.Ack != c.sndNxt {
			return
		}
		c.rcvNxt = h.Seq + 1
		c.sndUna = h.Ack
		c.sndWnd = c.peerWnd(h)
		c.handshake = c.stk.negotiate(h)
		c.setState(tcpEstablished)
		c.rtxAt = 0
		c.sendAckNow()
		c.output()
		return

	case tcpTimeWait:
		if h.Flags&TCPFin != 0 && h.Seq+uint32(len(payload))+1 == c.rcvNxt {
			// The peer's FIN again: our ACK of it was lost. ACK it
			// anew and restart 2MSL (RFC 793 p. 73, FreeBSD's
			// tcp_twcheck).
			c.sendAckNow()
			c.arm(timeWaitDur)
			return
		}
	}

	// Established-and-later processing.
	if h.Flags&TCPAck != 0 {
		c.handleAck(h)
		if c.state == tcpClosed {
			return
		}
	}
	c.acceptData(h, payload)
	if h.Flags&TCPFin != 0 && h.Seq+uint32(len(payload)) == c.rcvNxt && !c.is(peerFin) {
		c.rcvNxt++
		// Nothing follows a FIN, and it took a sequence number but no ring
		// byte: anything parked past it would now sit one off.
		if k := c.cold; k != nil {
			k.rcvOOO = k.rcvOOO[:0]
		}
		c.sendAckNow()
		c.advance(evPeerFin)
	}
	// Push out anything the new window allows.
	c.output()
	// Once our FIN is acked, FIN_WAIT_2 waits for the peer's: any
	// segment from the peer restarts the wait, and a peer silent for
	// 2MSL is dropped (FreeBSD's tcp_finwait2_timeout).
	if c.state == tcpFinWait2 {
		c.arm(timeWaitDur)
	}
	// The segment may have delivered data or a FIN (EPOLLIN) or acked
	// send-buffer space free (EPOLLOUT); the early returns above change
	// readiness only through setState.
	c.wake()
}

// onTimers runs the connection's timers; called from the loop. The one
// deadline ends TIME_WAIT and an idle FIN_WAIT_2, probes a persisting
// connection's zero window, and is a retransmission timeout otherwise.
func (c *tcpConn) onTimers(now int64) {
	if c.rtxAt != 0 && now >= c.rtxAt {
		switch {
		case c.state == tcpFinWait2:
			c.stk.stats.FinWait2Drops++
			fallthrough
		case c.state == tcpTimeWait:
			c.stk.removeConn(c)
			return
		case c.persisting():
			c.onPersist()
		default:
			c.onRTO()
		}
	}
	if c.delackAt != 0 && now >= c.delackAt {
		c.sendAckNow()
	}
	// Window update: if we advertised (near) zero and space opened, tell
	// the peer.
	if c.needsWindowUpdate() {
		c.sendAckNow()
	}
}

// needsWindowUpdate reports whether the timer pass owes the peer a
// window update: we advertised (near) zero and buffer space has since
// opened. ONE predicate shared between onTimers (which sends the
// update) and Stack.noteReadDrain (which tells the event-driven driver
// to visit that iteration) — if the two drifted apart, the leap driver
// could skip exactly the iteration the update is due in.
func (c *tcpConn) needsWindowUpdate() bool {
	return c.is(receives) && c.advWnd < uint32(c.sndMSS) && c.rcvWnd() >= uint32(2*c.sndMSS)
}

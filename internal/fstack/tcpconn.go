package fstack

import (
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

var tcpStateNames = map[tcpState]string{
	tcpClosed: "CLOSED", tcpSynSent: "SYN_SENT", tcpSynReceived: "SYN_RCVD",
	tcpEstablished: "ESTABLISHED", tcpFinWait1: "FIN_WAIT_1", tcpFinWait2: "FIN_WAIT_2",
	tcpCloseWait: "CLOSE_WAIT", tcpClosing: "CLOSING", tcpLastAck: "LAST_ACK",
	tcpTimeWait: "TIME_WAIT",
}

func (s tcpState) String() string { return tcpStateNames[s] }

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
)

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

	// RTT estimation (RFC 6298 via timestamps) and the timers; a
	// deadline of 0 is off.
	srtt     int64
	rttvar   int64
	rto      int64
	rtxAt    int64 // retransmission deadline; in TIME_WAIT, the 2MSL one
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
	sndMSS   int32 // payload bytes per segment (after options)
	// obsCwnd is the last congestion window the flight recorder saw
	// (noteCwnd), so the trace only carries changes.
	obsCwnd int32
	sockErr int32 // sticky hostos.Errno (ECONNRESET etc.)
	timerH  connscale.Handle

	tuple     fourTuple
	state     tcpState
	delackCnt uint8
	rtxN      uint8  // consecutive backoffs
	cc        ccAlgo // congestion control, from the stack's tuning
	// Window scaling and SACK (RFC 7323 / RFC 2018), negotiated on the
	// SYN; all zero on a stack with default tuning, which keeps the
	// wire behavior of the paper's scenarios bit-identical.
	sndWScale uint8 // shift applied to windows the peer advertises
	rcvWScale uint8 // shift applied to windows we advertise
	offerSACK bool  // we advertise SACK-permitted on our SYN/SYN|ACK
	offerWS   bool  // we advertise window scaling on our SYN/SYN|ACK
	sackOK    bool  // both sides agreed on SACK

	// connection-scale plumbing (stack.go): seq stamps creation order
	// for the poll visit sort; timerH files the earliest armed timer on
	// the stack's timing wheel, which keeps its instant; queued
	// deduplicates visit-list membership; sk and inPending (residence on
	// a listener's accept queue) together gate recycling the struct
	// through the conn arena once removeConn has made it CLOSED.
	queued    bool
	inPending bool
}

// tcpCold is the part of a connection that only loss, reordering, a
// zero window or CUBIC's congestion avoidance needs: the sender's
// scoreboard and recovery state, the receiver's reassembly runs, the
// persist timer and CUBIC's epoch. A connection takes one from its
// stack's pool the first time it needs any of it and gives it back with
// its rings (enterTimeWait, maybeRecycleConn); a nil record reads as no
// recovery, nothing parked, persist off and no CUBIC epoch. The record
// keeps its slices' capacity between connections, so a warm stack's
// loss episodes allocate nothing.
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
	cubic cubicEpoch
	// persist timer (zero-window probing): armed when a zero peer
	// window with data waiting leaves nothing in flight, so a lost
	// window update cannot stall the connection forever.
	persistAt  int64  // probe deadline; 0 = off
	recoverPt  uint32 // sndMax when recovery began (RFC 6582 "recover")
	rtxNxt     uint32 // next hole-fill candidate during SACK recovery
	dupAcks    int32
	persistN   uint8 // consecutive probe backoffs
	inRecovery bool
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

// persistAt is the zero-window probe deadline; 0 = off.
func (c *tcpConn) persistAt() int64 {
	if c.cold == nil {
		return 0
	}
	return c.cold.persistAt
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

// finQueued reports whether the application has closed the connection:
// the five states after RFC 793's CLOSE, in which finSeq is the sequence
// number our FIN takes once every queued byte is out. Our FIN is in
// flight while sndNxt is past finSeq; a timeout rewind requeues it.
func (c *tcpConn) finQueued() bool {
	switch c.state {
	case tcpFinWait1, tcpFinWait2, tcpClosing, tcpLastAck, tcpTimeWait:
		return true
	}
	return false
}

// finAcked reports whether the peer has acknowledged our FIN.
func (c *tcpConn) finAcked() bool { return c.finQueued() && seqGT(c.sndUna, c.finSeq) }

// peerFin reports whether the peer's FIN has been sequenced into rcvNxt:
// the four states that follow one.
func (c *tcpConn) peerFin() bool {
	switch c.state {
	case tcpCloseWait, tcpClosing, tcpLastAck, tcpTimeWait:
		return true
	}
	return false
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
	sndSize, rcvSize := sndBufSize, rcvBufSize
	if s.tuning.SndBufBytes > 0 {
		sndSize = s.tuning.SndBufBytes
	}
	if s.tuning.RcvBufBytes > 0 {
		rcvSize = s.tuning.RcvBufBytes
	}
	c := s.connArena.take() // a recycled one's rings released by maybeRecycleConn
	ssthresh := uint32(initialSsthresh)
	if s.tuning.WindowScale > 0 {
		ssthresh = unboundedSsthresh
	}
	*c = tcpConn{
		stk:       s,
		tuple:     tuple,
		state:     tcpClosed,
		sndBuf:    sockBuf{size: uint32(sndSize)},
		rcvBuf:    sockBuf{size: uint32(rcvSize)},
		sndMSS:    MaxSegData,
		cwnd:      initialCwnd,
		ssthresh:  ssthresh,
		cc:        s.tuning.algo(),
		rto:       rtoInitial,
		offerSACK: s.tuning.SACK,
		offerWS:   s.tuning.WindowScale > 0,
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

// nowUS is the timestamp-option clock (µs, truncated).
func (c *tcpConn) nowUS() uint32 { return uint32(c.stk.now() / 1e3) }

// rcvWnd computes the window to advertise. Without window scaling the
// historical 56 KiB cap applies; with it, the receive buffer is the
// only bound (the advertised field still truncates to 16 bits after
// the shift).
func (c *tcpConn) rcvWnd() uint32 {
	w := c.rcvBuf.Free()
	if c.rcvWScale == 0 {
		if w > maxRcvWnd {
			w = maxRcvWnd
		}
	} else if cap := 65535 << c.rcvWScale; w > cap {
		w = cap // the largest value the shifted 16-bit field can carry
	}
	return uint32(w)
}

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
		TSVal:   c.nowUS(),
		TSEcr:   c.tsRecent,
	}
	wnd := c.rcvWnd()
	if flags&TCPSyn != 0 {
		// SYN windows are never scaled; SYNs also carry the feature
		// offers (MSS is the caller's withMSS, below).
		h.Window = uint16(min(wnd, 65535))
		if c.offerWS {
			h.HasWS = true
			h.WScale = c.stk.tuning.WindowScale
		}
		h.SACKPermitted = c.offerSACK
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

// armRTO (re)arms the retransmission timer.
func (c *tcpConn) armRTO() {
	c.rtxAt = c.stk.now() + c.rto
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
	switch c.state {
	case tcpEstablished, tcpCloseWait, tcpFinWait1, tcpClosing, tcpLastAck:
	default:
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
			c.armRTO()
		}
	}
	// FIN, once all data is out: Close fixed its sequence number and
	// state, so sending it changes neither.
	if c.finQueued() && c.sndNxt == c.finSeq && c.inflight() <= wnd {
		if c.sendSegment(TCPFin|TCPAck, c.sndNxt, 0, false) {
			c.sndNxt++
			c.sndMax = seqMax(c.sndMax, c.sndNxt)
			if c.rtxAt == 0 {
				c.armRTO()
			}
		}
	}
	// Persist timer: a zero peer window with data waiting and nothing
	// in flight means the peer's window update is the only event that
	// can restart this sender — and a lost update would stall the
	// connection forever. Arm the zero-window probe (RFC 9293
	// §3.8.6.1); the top-of-function state switch already restricted
	// this path to the sending states.
	if c.persistAt() == 0 && c.rtxAt == 0 && c.sndWnd == 0 &&
		c.inflight() == 0 && c.sndBuf.Len() > 0 {
		k := c.takeCold()
		k.persistN = 0
		k.persistAt = c.stk.now() + c.persistInterval()
		c.stk.noteTimer(c, k.persistAt)
	}
}

// persistInterval is the current zero-window probe backoff: the RTO
// doubled per unanswered probe, capped like the RTO itself.
func (c *tcpConn) persistInterval() int64 {
	return min(c.rto<<min(c.cold.persistN, 10), int64(rtoMax))
}

// onPersist fires when the persist timer expires: force one byte past
// the zero window. The peer must answer any in-window-or-not segment
// with an ACK carrying its current window, which repairs a lost window
// update. The probe byte rides at sndUna so repeated probes stay
// idempotent; the first probe advances sndNxt over it so a peer that
// has room can accept it.
func (c *tcpConn) onPersist() {
	k := c.cold
	k.persistAt = 0
	if c.sndWnd > 0 || c.sndBuf.Len() == 0 {
		k.persistN = 0 // window opened (or data drained) while pending
		c.output()
		return
	}
	switch c.state {
	case tcpEstablished, tcpCloseWait, tcpFinWait1, tcpClosing, tcpLastAck:
	default:
		k.persistN = 0
		return
	}
	if c.sendSegment(TCPAck, c.sndUna, 1, false) {
		c.stk.stats.PersistProbes++
		if c.sndNxt == c.sndUna {
			c.sndNxt++
			c.sndMax = seqMax(c.sndMax, c.sndNxt)
		}
	}
	if k.persistN < 16 {
		k.persistN++
	}
	k.persistAt = c.stk.now() + c.persistInterval()
	c.stk.noteTimer(c, k.persistAt)
}

// --- input ---

// rttSample updates SRTT/RTTVAR/RTO from a sample (ns).
func (c *tcpConn) rttSample(sample int64) {
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if floor := c.stk.rtoFloor(); c.rto < floor {
		c.rto = floor
	}
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
}

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
	c.armRTO()
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
		c.armRTO()
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
		// same (zero) window; while the persist timer runs those are
		// probe answers, not loss signals.
		if ack == c.sndUna && c.inflight() > 0 && c.peerWnd(h) == c.sndWnd &&
			c.persistAt() == 0 {
			k := c.takeCold()
			k.dupAcks++
			c.stk.stats.DupAcks++
			switch {
			case k.dupAcks == 3 && !k.inRecovery:
				c.enterRecovery()
			case k.inRecovery && c.sackOK:
				c.sackFill()
			case k.inRecovery:
				c.ccDupAck() // NewReno window inflation
				c.output()
			}
		}
		if seqGE(ack, c.sndUna) {
			c.sndWnd = c.peerWnd(h)
			if c.persistAt() != 0 && c.sndWnd > 0 {
				// The window update the probes were fishing for: leave
				// persist and disown any probe byte still unacked
				// (sndMax too, so the in-order resend is fresh data to
				// the stats, not a phantom RTO retransmit). If the
				// peer did take the byte, the resend is a partial
				// overlap its receiver already handles.
				c.cold.persistAt = 0
				c.cold.persistN = 0
				c.sndNxt = c.sndUna
				c.sndMax = c.sndUna
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
	if c.finQueued() && seqGT(ack, c.finSeq) {
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
	// After a timeout rewind the peer may acknowledge past sndNxt:
	// skip ahead rather than resending what it already has.
	if seqGT(ack, c.sndNxt) {
		c.sndNxt = ack
	}
	c.sackPrune()
	c.sndWnd = c.peerWnd(h)
	c.rtxN = 0
	if k := c.cold; k != nil {
		k.dupAcks = 0
		k.persistAt = 0 // forward progress: the probe cycle (if any) is over
		k.persistN = 0
	}
	if h.HasTS && h.TSEcr != 0 {
		sample := (int64(c.nowUS()) - int64(h.TSEcr)) * 1e3
		c.rttSample(sample)
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
		c.armRTO()
	}
	// State transitions driven by our FIN being acked.
	if c.finAcked() {
		switch c.state {
		case tcpFinWait1:
			c.setState(tcpFinWait2)
		case tcpClosing:
			c.enterTimeWait()
		case tcpLastAck:
			c.stk.removeConn(c)
		}
	}
}

// onRTO fires when the retransmission timer expires: rewind and resend
// with exponential backoff (RFC 6298 §5). With SACK negotiated the
// scoreboard survives the timeout (RFC 2018 §8), so the resend pass in
// output() skips runs the peer already holds; without it this is plain
// go-back-N.
func (c *tcpConn) onRTO() {
	if c.state == tcpSynSent {
		c.rtxN++
		if c.rtxN > synRetries {
			c.abort(hostos.ETIMEDOUT)
			return
		}
		c.sendSegment(TCPSyn, c.sndUna, 0, true)
		c.rto = min(c.rto*2, int64(rtoMax))
		c.armRTO()
		return
	}
	if c.inflight() == 0 { // a FIN in flight counts: it has a sequence number
		c.rtxAt = 0
		return
	}
	c.ccRTO(c.pipe())
	c.noteCwnd()
	if k := c.cold; k != nil {
		k.dupAcks = 0
		k.inRecovery = false
	}
	// Rewind and let output() resend (it classifies the resends and
	// skips SACKed runs, and requeues a FIN the rewind passed below).
	c.sndNxt = c.sndUna
	c.rto = min(c.rto*2, int64(rtoMax))
	c.rtxN++
	c.armRTO()
	c.output()
}

// oooRun is one contiguous run of out-of-order bytes parked for
// reassembly: sequence range [start, end), accepted as segs arrivals.
// The bytes sit in the receive ring itself, at offset seq-rcvNxt past
// its write point, where the in-order stream will reach them.
type oooRun struct {
	start, end uint32
	segs       uint32
}

// block is the run as RFC 2018 reports it.
func (r oooRun) block() SACKBlock { return SACKBlock{Start: r.start, End: r.end} }

// oooMaxSegs bounds how many arrivals a connection parks for reassembly
// (FreeBSD's net.inet.tcp.reass.maxqueuelen analog): as many as 192 KiB
// of full segments, raised to a ring of full segments for larger rings.
// Short segments reach it first — Scenario 9's HTTP requests do at
// 20 000/s. Parked bytes need no budget of their own: the window check
// in oooInsert keeps every one inside the receive ring's free space.
const oooMaxSegs = 192 * 1024 / MaxSegData

// oooSegCap is the connection's arrival budget.
func (c *tcpConn) oooSegCap() int {
	return max(oooMaxSegs, int(c.rcvBuf.size)/MaxSegData)
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
	// The budget is a sum over the (few) runs rather than a running
	// counter, so the cold record carries no reassembly state beyond
	// the list itself.
	var segs uint32
	for _, r := range k.rcvOOO {
		segs += r.segs
	}
	if int(segs) >= c.oooSegCap() {
		c.stk.stats.ReassDrops++ // reassembly budget exhausted
		return
	}
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
	// Store the gaps between those runs; at is the first byte of the
	// segment not known to be held. m is the run all of it coalesces into.
	m := oooRun{start: seq, end: end, segs: 1}
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
			m.segs += runs[i].segs
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
// and its cold record to its arena, which also turns persist off
// (FreeBSD's tcp_twstart): TIME_WAIT follows Close, our FIN is
// acknowledged and the peer's is sequenced, so nothing reads or writes
// either ring again, and nothing is left to recover or retransmit —
// rtxAt holds the 2MSL deadline instead.
func (c *tcpConn) enterTimeWait() {
	c.setState(tcpTimeWait)
	c.rtxAt = c.stk.now() + timeWaitDur
	c.stk.noteTimer(c, c.rtxAt)
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
	if c.cold != nil {
		c.cold.persistAt = 0
	}
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
		if c.state == tcpSynSent && (h.Flags&TCPAck == 0 || h.Ack != c.sndNxt) {
			return // RST not for our SYN
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
		if h.MSS != 0 {
			c.sndMSS = int32(min(int(h.MSS)-tsOptionLen, MaxSegData))
		}
		// Feature negotiation: each option is on only if both sides
		// offered it (RFC 7323 §2.2, RFC 2018 §3).
		c.sackOK = c.offerSACK && h.SACKPermitted
		if c.offerWS && h.HasWS {
			c.sndWScale = h.WScale
			c.rcvWScale = c.stk.tuning.WindowScale
		}
		c.setState(tcpEstablished)
		c.rtxAt = 0
		c.rtxN = 0
		c.sendAckNow()
		c.output()
		return

	case tcpTimeWait:
		if h.Flags&TCPFin != 0 && h.Seq+uint32(len(payload))+1 == c.rcvNxt {
			// The peer's FIN again: our ACK of it was lost. ACK it
			// anew and restart 2MSL (RFC 793 p. 73, FreeBSD's
			// tcp_twcheck).
			c.sendAckNow()
			c.rtxAt = c.stk.now() + timeWaitDur
			c.stk.noteTimer(c, c.rtxAt)
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
	if h.Flags&TCPFin != 0 && h.Seq+uint32(len(payload)) == c.rcvNxt && !c.peerFin() {
		c.rcvNxt++
		// Nothing follows a FIN, and it took a sequence number but no ring
		// byte: anything parked past it would now sit one off.
		if k := c.cold; k != nil {
			k.rcvOOO = k.rcvOOO[:0]
		}
		c.sendAckNow()
		switch c.state {
		case tcpEstablished:
			c.setState(tcpCloseWait)
		case tcpFinWait1:
			if c.finAcked() {
				c.enterTimeWait()
			} else {
				c.setState(tcpClosing)
			}
		case tcpFinWait2:
			c.enterTimeWait()
		}
	}
	// Push out anything the new window allows.
	c.output()
	// The segment may have delivered data or a FIN (EPOLLIN) or acked
	// send-buffer space free (EPOLLOUT); the early returns above change
	// readiness only through setState.
	c.wake()
}

// onTimers runs the connection's timers; called from the loop. In
// TIME_WAIT rtxAt is the 2MSL deadline, which ends the connection after
// the other timers have run, never a retransmission.
func (c *tcpConn) onTimers(now int64) {
	if c.state != tcpTimeWait && c.rtxAt != 0 && now >= c.rtxAt {
		c.onRTO()
	}
	if at := c.persistAt(); at != 0 && now >= at {
		c.onPersist()
	}
	if c.delackAt != 0 && now >= c.delackAt {
		c.sendAckNow()
	}
	if c.state == tcpTimeWait && now >= c.rtxAt {
		c.stk.removeConn(c)
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
	switch c.state {
	case tcpEstablished, tcpFinWait1, tcpFinWait2:
		return c.advWnd < uint32(c.sndMSS) && c.rcvWnd() >= uint32(2*c.sndMSS)
	}
	return false
}

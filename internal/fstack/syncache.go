package fstack

import (
	"repro/internal/fstack/connscale"
	"repro/internal/obs"
)

// The SYN cache (FreeBSD's tcp_syncache, which F-Stack inherits): a
// half-open connection costs one pooled synEntry — tuple, ISS and the
// negotiated options — instead of a full tcpConn with socket buffers.
// The entry answers the SYN with a SYN|ACK, retransmits it off the
// stack's synWheel, and graduates into a real connection only when the
// final ACK of the handshake arrives. A SYN flood therefore exhausts a
// fixed-size cache, not the connection table or the buffer segment.

// defaultSynCacheCap bounds the cache when the tuning leaves
// SynCacheSize zero.
const defaultSynCacheCap = 1024

// synEntry is one half-open connection.
type synEntry struct {
	tuple fourTuple

	iss      uint32 // our initial sequence number
	irs      uint32 // peer's initial sequence number (SYN's Seq)
	tsRecent uint32 // latest peer TSVal (echoed in TSEcr)
	advWnd   uint32 // the window our SYN|ACK advertises (seeds conn.advWnd)
	handshake
	rexmt  // the SYN|ACK's timeout and resend count; no RTT sample
	timerH connscale.Handle
}

// synCacheCap is the configured cache bound.
func (s *Stack) synCacheCap() int {
	if s.tuning.SynCacheSize > 0 {
		return s.tuning.SynCacheSize
	}
	return defaultSynCacheCap
}

// noteSynDrop counts and traces one refused SYN.
func (s *Stack) noteSynDrop(reason int64, l *listener, port uint16) {
	s.stats.SynDrops++
	if s.obsTr != nil {
		depth := int64(0)
		if l != nil {
			depth = int64(l.pendingCount())
		}
		s.obsTr.Record(s.now(), obs.EvTCPSynDrop, s.obsSrc, reason, depth, int64(port))
	}
}

// acceptSyn admits a SYN into the cache and answers SYN|ACK. A SYN
// refused because the backlog or the cache is full is counted and
// dropped silently (the peer retransmits).
func (s *Stack) acceptSyn(l *listener, tuple fourTuple, h TCPHeader) {
	if l.pendingCount()+l.halfOpen >= l.backlog {
		s.noteSynDrop(obs.SynDropBacklog, l, tuple.local.Port)
		return
	}
	if len(s.syncache) >= s.synCacheCap() {
		s.noteSynDrop(obs.SynDropCache, l, tuple.local.Port)
		return
	}
	e := s.synArena.take()
	*e = synEntry{tuple: tuple, irs: h.Seq, rexmt: rexmt{rto: rtoInitial}, timerH: connscale.None}
	if h.HasTS {
		e.tsRecent = h.TSVal
	}
	// The SYN|ACK carries our side of the agreement, and offers the
	// window a fresh connection's empty ring offers under the shift it
	// will run with (unscaled: SYN windows never are), so no later
	// window of that connection falls below it.
	e.handshake = s.negotiate(h)
	e.advWnd = min(offeredWnd(s.tuning.rcvRing(), e.rcvWScale), 65535)
	e.iss = s.iss()
	s.syncache[tuple] = e
	l.halfOpen++
	s.sendSynAck(e)
	e.timerH = s.synWheel.Insert(s.now()+int64(e.rto), e)
}

// sendSynAck emits (or re-emits) the entry's SYN|ACK.
func (s *Stack) sendSynAck(e *synEntry) {
	h := TCPHeader{
		SrcPort: e.tuple.local.Port,
		DstPort: e.tuple.remote.Port,
		Seq:     e.iss,
		Ack:     e.irs + 1,
		Flags:   TCPSyn | TCPAck,
		HasTS:   true,
		TSVal:   s.nowUS(),
		TSEcr:   e.tsRecent,
		Window:  uint16(e.advWnd),
		MSS:     MSSDefault,
		// rcvWScale is nonzero iff both sides offered scaling.
		HasWS:         e.rcvWScale > 0,
		WScale:        e.rcvWScale,
		SACKPermitted: e.sackOK,
	}
	hl := h.encodedLen()
	nif := s.nifByIP(e.tuple.local.IP)
	m, frame := s.txAlloc(IPv4HeaderLen + hl)
	if m == nil {
		return // ring full: the retransmit timer is the retry path
	}
	PutTCPHeader(frame[EthHeaderLen+IPv4HeaderLen:], h, e.tuple.local.IP, e.tuple.remote.IP, hl)
	s.sendIPv4(nif, m, frame, e.tuple.remote.IP, ProtoTCP, hl)
}

// synRetransmit fires off the synWheel: resend the SYN|ACK with
// exponential backoff, giving up (and releasing the backlog slot)
// after synRetries resends — mirroring the SYN_RCVD RTO path
// connections used before the cache existed.
func (s *Stack) synRetransmit(e *synEntry) {
	if e.backoff() > synRetries {
		s.synDropEntry(e)
		return
	}
	s.sendSynAck(e)
	e.timerH = s.synWheel.Insert(s.now()+int64(e.rto), e)
}

// synInput processes a segment addressed to a half-open entry.
func (s *Stack) synInput(e *synEntry, h TCPHeader, payload []byte) {
	if h.HasTS {
		e.tsRecent = h.TSVal
	}
	if h.Flags&TCPRst != 0 {
		s.synDropEntry(e)
		return
	}
	if h.Flags&TCPAck != 0 && h.Ack == e.iss+1 {
		s.graduate(e, h, payload)
		return
	}
	if h.Flags&TCPSyn != 0 {
		s.sendSynAck(e) // duplicate SYN: re-ack
		return
	}
	// Anything else (wrong ACK, stray data): ignore; the peer's
	// retransmissions sort it out.
}

// graduate turns a half-open entry into a real connection on the final
// ACK of the handshake, enforcing the accept-queue bound. The new conn
// is set up exactly as the pre-syncache SYN_RCVD state left it, then
// the ACK is run through the normal input path — so payload, FIN and
// window handling are byte-identical to the historical fall-through.
func (s *Stack) graduate(e *synEntry, h TCPHeader, payload []byte) {
	l := s.findListener(e.tuple.local)
	if l != nil && l.pendingCount() >= l.backlog {
		// Accept queue full: keep the entry half-open (the SYN|ACK
		// retransmit re-offers graduation once the application drains
		// the queue — FreeBSD's syncache does the same).
		s.stats.AcceptOverflows++
		if s.obsTr != nil {
			s.obsTr.Record(s.now(), obs.EvTCPSynDrop, s.obsSrc,
				obs.SynDropOverflow, int64(l.pendingCount()), int64(e.tuple.local.Port))
		}
		return
	}
	c := s.newTCPConn(e.tuple)
	c.setState(tcpSynReceived)
	c.rcvNxt = e.irs + 1
	c.tsRecent = e.tsRecent
	c.handshake = e.handshake
	// The handshake is complete: sndUna already past the SYN.
	c.sndUna, c.sndNxt, c.sndMax = e.iss+1, e.iss+1, e.iss+1
	c.sndWnd = c.peerWnd(h)
	c.advWnd = e.advWnd
	c.rto = e.rto // carries any SYN|ACK backoff, like the conn path did
	s.addConn(c)
	s.stats.Accepts++
	s.synForget(e)
	c.setState(tcpEstablished)
	s.notifyAccept(c)
	if c.state == tcpClosed {
		return // listener vanished: notifyAccept already RST+aborted
	}
	c.input(h, payload)
}

// synDropEntry abandons a half-open entry, releasing its listener's
// backlog slot.
func (s *Stack) synDropEntry(e *synEntry) {
	if l := s.findListener(e.tuple.local); l != nil && l.halfOpen > 0 {
		l.halfOpen--
	}
	s.synForget(e)
}

// synForget removes an entry from the cache and gives it back to the
// arena.
func (s *Stack) synForget(e *synEntry) {
	if e.timerH != connscale.None {
		s.synWheel.Remove(e.timerH)
		e.timerH = connscale.None
	}
	delete(s.syncache, e.tuple)
	s.synArena.put(e)
}

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
	mss      int    // negotiated send MSS; 0 = peer offered no MSS option
	sackOK   bool   // both sides agreed on SACK
	wsOK     bool   // both sides agreed on window scaling
	peerWS   uint8  // peer's window-scale shift
	wnd      uint32 // receive window our SYN|ACK advertises
	advWnd   uint32 // what that advertisement decodes to (seeds conn.advWnd)

	rto    int64 // SYN|ACK retransmit interval (doubles per resend)
	rxtN   int   // resend count
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
	*e = synEntry{tuple: tuple, irs: h.Seq, timerH: connscale.None}
	if h.HasTS {
		e.tsRecent = h.TSVal
	}
	if h.MSS != 0 {
		e.mss = min(int(h.MSS)-tsOptionLen, MaxSegData)
	}
	// Feature negotiation: only echo what the client offered AND the
	// stack's tuning enables; the SYN|ACK then carries our side of the
	// agreement.
	e.sackOK = s.tuning.SACK && h.SACKPermitted
	e.wsOK = s.tuning.WindowScale > 0 && h.HasWS
	e.peerWS = h.WScale
	e.wnd = s.freshRcvWnd()
	e.advWnd = min(e.wnd, 65535) // SYN windows are never scaled
	e.iss = s.iss()
	e.rto = rtoInitial
	s.syncache[tuple] = e
	l.halfOpen++
	s.sendSynAck(e)
	e.timerH = s.synWheel.Insert(s.now()+e.rto, e)
}

// freshRcvWnd is the receive window a brand-new connection would
// advertise: its buffer is empty, so only the tuned size and the
// scaling caps apply. Must match tcpConn.rcvWnd on a fresh conn so the
// SYN|ACK is byte-identical to the one the pre-syncache stack sent.
func (s *Stack) freshRcvWnd() uint32 {
	w := rcvBufSize
	if s.tuning.RcvBufBytes > 0 {
		w = s.tuning.RcvBufBytes
	}
	if s.tuning.WindowScale == 0 {
		if w > maxRcvWnd {
			w = maxRcvWnd
		}
	} else if cap := 65535 << s.tuning.WindowScale; w > cap {
		w = cap
	}
	return uint32(w)
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
		TSVal:   uint32(s.now() / 1e3),
		TSEcr:   e.tsRecent,
		Window:  uint16(min(e.wnd, 65535)),
		MSS:     MSSDefault,
	}
	if e.wsOK {
		h.HasWS = true
		h.WScale = s.tuning.WindowScale
	}
	h.SACKPermitted = e.sackOK
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
	e.rxtN++
	if e.rxtN > synRetries {
		s.synDropEntry(e)
		return
	}
	s.sendSynAck(e)
	e.rto = min(e.rto*2, int64(rtoMax))
	e.timerH = s.synWheel.Insert(s.now()+e.rto, e)
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
	if e.mss != 0 {
		c.sndMSS = int32(e.mss)
	}
	c.offerSACK, c.sackOK = e.sackOK, e.sackOK
	c.offerWS = e.wsOK
	if e.wsOK {
		c.sndWScale = e.peerWS
		c.rcvWScale = s.tuning.WindowScale
	}
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

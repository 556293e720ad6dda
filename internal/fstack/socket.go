package fstack

import (
	"repro/internal/hostos"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Socket types (ff_socket's type argument).
const (
	SockStream = 1
	SockDgram  = 2
)

// API is the ff_* socket contract application code is written against.
// Stack (inside the loop callback or beside it), ShardedAPI (over a
// sharded stack) and the testbed's gated view (across compartments) all
// satisfy it, so one workload runs unchanged in every layout — the
// paper's single iperf3 port.
type API interface {
	Socket(typ int) (int, hostos.Errno)
	Bind(fd int, ip IPv4Addr, port uint16) hostos.Errno
	Listen(fd, backlog int) hostos.Errno
	Accept(fd int) (int, IPv4Addr, uint16, hostos.Errno)
	Connect(fd int, ip IPv4Addr, port uint16) hostos.Errno
	Read(fd int, dst []byte) (int, hostos.Errno)
	Write(fd int, src []byte) (int, hostos.Errno)
	SendTo(fd int, data []byte, ip IPv4Addr, port uint16) (int, hostos.Errno)
	RecvFrom(fd int, dst []byte) (int, IPv4Addr, uint16, hostos.Errno)
	Close(fd int) hostos.Errno
	EpollCreate() int
	EpollCtl(epfd, op, fd int, events uint32) hostos.Errno
	EpollWait(epfd int, evs []Event) (int, hostos.Errno)
}

// listener is a passive TCP socket's accept machinery. halfOpen counts
// this listener's SYN-cache entries; pending is the accept queue, run
// as a head-indexed queue over one slice (see cutHead) so steady-state
// churn neither allocates nor grows it.
type listener struct {
	sk       *socket // the listening descriptor, for its epoll wakes
	backlog  int
	halfOpen int
	pending  []*tcpConn // established, awaiting Accept
	head     int        // index of the oldest pending conn

	// err is latched when the stack crashes under the listener
	// (ENETDOWN): Accept returns it instead of EAGAIN, telling a
	// supervised server to rebuild its socket from scratch.
	err hostos.Errno
}

// pendingCount is the accept-queue depth.
func (l *listener) pendingCount() int { return len(l.pending) - l.head }

// pushPending enqueues an established connection for Accept.
func (l *listener) pushPending(c *tcpConn) {
	c.inPending = true
	l.pending = append(l.pending, c)
	l.sk.wake()
}

// popPending dequeues the oldest pending connection.
func (l *listener) popPending() *tcpConn {
	c := l.pending[l.head]
	l.pending[l.head] = nil
	l.pending, l.head = cutHead(l.pending, l.head+1)
	c.inPending = false
	return c
}

// cutHead drops a head-indexed queue's consumed head once it is the
// larger half, so a queue that never drains (one entry always waiting)
// keeps its slice O(queued) rather than one slot per entry ever pushed;
// a drained queue starts over at index 0. It returns the queue and its
// new head.
func cutHead[T any](q []T, head int) ([]T, int) {
	if head <= len(q)/2 {
		return q, head
	}
	n := copy(q, q[head:])
	clear(q[n:])
	return q[:n], 0
}

// dgram is one queued UDP datagram.
type dgram struct {
	src  tcpEndpoint
	data []byte // pooled buffer (udpPayloadMax cap), returned on pop
}

// udpQueueMax bounds the per-socket datagram queue.
const udpQueueMax = 256

// udpPayloadMax is the largest UDP payload the stack accepts or sends
// (no IP fragmentation), and the capacity of every pooled dgram buffer.
const udpPayloadMax = MTU - IPv4HeaderLen - UDPHeaderLen

// udpSock is a bound UDP endpoint. The datagram queue is a head-indexed
// queue like listener.pending: popped slots are cleared and cutHead
// reuses the backing array, so a steady query/answer exchange never
// regrows it.
type udpSock struct {
	sk   *socket // the bound descriptor, for its epoll wakes
	ep   tcpEndpoint
	q    []dgram
	head int

	// err is latched when the stack crashes under the binding
	// (ENETDOWN); SendTo/RecvFrom return it until the fd is closed.
	err hostos.Errno
}

func (u *udpSock) queued() int { return len(u.q) - u.head }

func (u *udpSock) pushDgram(d dgram) {
	u.q = append(u.q, d)
	u.sk.wake()
}

// popDgram removes the oldest datagram. Caller must check queued() > 0
// and recycle d.data via freeDgramBuf when done with it.
func (u *udpSock) popDgram() dgram {
	d := u.q[u.head]
	u.q[u.head] = dgram{}
	u.q, u.head = cutHead(u.q, u.head+1)
	return d
}

// allocDgramBuf takes a payload buffer off the free list (or allocates one
// at full capacity, so it is reusable for any datagram size).
func (s *Stack) allocDgramBuf() []byte {
	if n := len(s.dgramFree); n > 0 {
		b := s.dgramFree[n-1]
		s.dgramFree[n-1] = nil
		s.dgramFree = s.dgramFree[:n-1]
		return b
	}
	s.dgramMade++
	return make([]byte, 0, udpPayloadMax)
}

func (s *Stack) freeDgramBuf(b []byte) {
	s.dgramFree = append(s.dgramFree, b[:0])
}

// socket is one open socket on one stack, named by a number of a view
// (ShardedAPI). Its size is part of Scenario 8's
// bytes-per-idle-connection figure (Stack.RetainedBytes) and pinned by a
// test: typ shares bound's word so the epoll chain head fits without
// growing the struct.
type socket struct {
	bound tcpEndpoint
	typ   int16     // SockStream or SockDgram
	conn  *tcpConn  // stream, after connect/accept
	lst   *listener // stream, after listen
	udp   *udpSock  // dgram, after bind

	// regs chains this socket's epoll registrations (epoll.go).
	regs *epollReg
}

// What follows is the stack's half of the ff_* API: what a call does to
// the socket a view resolved its number to. All calls are non-blocking
// and take no host lock: a bed runs on one goroutine, so they may be made
// from OnLoop, from a gate target or between iterations. F-Stack's
// serialization against the main loop is modelled by sim's crossing-cost
// table, not by a mutex.

// newSocket takes a socket struct of the given type off the arena.
func (s *Stack) newSocket(typ int16) *socket {
	sk := s.sockArena.take()
	*sk = socket{typ: typ}
	return sk
}

// copySocket makes sk's copy on this stack, shard i of a view: its type,
// its address and its registrations, each with the same epoll number's
// instance on shard i and queued if the original is.
func (s *Stack) copySocket(sk *socket, i int) *socket {
	c := s.newSocket(sk.typ)
	c.bound = sk.bound
	for r := sk.regs; r != nil; r = r.nextSk {
		if nr := s.register(&r.ep.set[i], c, r.data, r.want); r.next != nil {
			nr.queue()
		}
	}
	return c
}

// bind attaches a local address. A zero IP binds all interfaces.
func (s *Stack) bind(sk *socket, ip IPv4Addr, port uint16) hostos.Errno {
	if sk.bound.Port != 0 || sk.udp != nil {
		return hostos.EINVAL
	}
	if ip != (IPv4Addr{}) && s.nifByIP(ip) == nil {
		return hostos.EINVAL
	}
	ep := tcpEndpoint{IP: ip, Port: port}
	if sk.typ == SockDgram {
		return s.openUDP(sk, ep)
	}
	if _, dup := s.listeners[ep]; dup {
		return hostos.EADDRINUSE
	}
	sk.bound = ep
	return hostos.OK
}

// openUDP binds a datagram socket to ep on this stack.
func (s *Stack) openUDP(sk *socket, ep tcpEndpoint) hostos.Errno {
	if _, dup := s.udps[ep]; dup {
		return hostos.EADDRINUSE
	}
	sk.bound, sk.udp = ep, &udpSock{sk: sk, ep: ep}
	s.udps[ep] = sk.udp
	sk.wake() // a bound datagram socket is writable
	return hostos.OK
}

// listen makes a bound stream socket passive.
func (s *Stack) listen(sk *socket, backlog int) hostos.Errno {
	if sk.typ != SockStream || sk.bound.Port == 0 || sk.lst != nil || sk.conn != nil {
		return hostos.EINVAL
	}
	sk.lst = &listener{sk: sk, backlog: max(backlog, 1)}
	s.listeners[sk.bound] = sk.lst
	return hostos.OK
}

// accept takes one established connection off a listener's queue as a
// new socket. EAGAIN when none is ready.
func (s *Stack) accept(sk *socket) (*socket, hostos.Errno) {
	switch {
	case sk.lst == nil:
		return nil, hostos.EINVAL
	case sk.lst.err != hostos.OK:
		return nil, sk.lst.err
	case sk.lst.pendingCount() == 0:
		return nil, hostos.EAGAIN
	}
	c := sk.lst.popPending()
	nsk := s.newSocket(SockStream)
	nsk.conn, nsk.bound = c, c.tuple.local
	c.sk = nsk
	return nsk, hostos.OK
}

// connect starts an active open of an unconnected stream socket from its
// bound port, else sport, else an ephemeral port. It returns
// EINPROGRESS; completion is reported by epoll writability, as with a
// non-blocking BSD socket. A socket bound to an address that the
// interface toward ip does not own, while that interface is on ip's
// subnet, is EADDRNOTAVAIL: its SYN would wait on the bound port's ARP
// for a host that is not on that wire.
func (s *Stack) connect(sk *socket, ip IPv4Addr, port, sport uint16) hostos.Errno {
	nif := s.nifForDst(ip)
	if nif == nil {
		return hostos.EINVAL
	}
	local := sk.bound
	switch {
	case local.IP == (IPv4Addr{}):
		local.IP = nif.IP
	case local.IP != nif.IP && nif.sameSubnet(ip):
		return hostos.EADDRNOTAVAIL
	}
	if local.Port == 0 {
		local.Port = sport
	}
	if local.Port == 0 {
		if local.Port = s.allocEphemeral(); local.Port == 0 {
			return hostos.EADDRNOTAVAIL
		}
	}
	tuple := fourTuple{local: local, remote: tcpEndpoint{IP: ip, Port: port}}
	if old := s.conns.get(tuple); old != nil {
		if old.state != tcpTimeWait {
			return hostos.EADDRINUSE
		}
		// TIME_WAIT reuse on active open: the old incarnation only
		// waits out 2MSL to absorb stray segments; a fresh outgoing
		// connection may take the tuple over immediately (the new ISS
		// is far from the old sequence space).
		s.stats.TimeWaitReuses++
		s.removeConn(old)
	}
	c := s.newTCPConn(tuple)
	iss := s.iss()
	c.sndUna, c.sndNxt, c.sndMax = iss, iss+1, iss+1
	c.setState(tcpSynSent)
	s.addConn(c)
	sk.conn = c
	sk.bound = local
	c.sk = sk
	c.sendSegment(TCPSyn, iss, 0, true)
	c.arm(int64(c.rto))
	return hostos.EINPROGRESS
}

// allocEphemeral hands out local ports, walking from the last hand-out
// with the per-port refcounts deciding availability — O(1) against the
// connection count. 0 means the whole range is in use
// (EADDRNOTAVAIL).
func (s *Stack) allocEphemeral() uint16 {
	for tries := 0; tries < 65536-ephemeralBase; tries++ {
		s.ephemeral++
		if s.ephemeral < ephemeralBase {
			s.ephemeral = ephemeralBase
		}
		if s.portRefs == nil || s.portRefs[s.ephemeral-ephemeralBase] == 0 {
			return s.ephemeral
		}
	}
	return 0
}

// write stores src in a writable connection's send buffer, books the
// call and sends what the window allows.
func (s *Stack) write(c *tcpConn, src []byte) (int, hostos.Errno) {
	n, err := c.sndBuf.writeFrom(s.seg, src)
	if err != nil {
		if !c.sndBuf.backed {
			return -1, hostos.ENOMEM // no room left in the segment for the ring
		}
		return -1, hostos.EFAULT
	}
	if n == 0 {
		return -1, hostos.EAGAIN
	}
	s.Core.Book(s.now(), sim.WriteCallNS+sim.CopyNS(n)) // a refused write costs nothing
	c.output()
	return n, hostos.OK
}

// writableState maps connection state to a write errno.
func writableState(c *tcpConn) hostos.Errno {
	if errno := c.err(); errno != hostos.OK {
		return errno
	}
	switch {
	case c.is(writable):
		return hostos.OK
	case c.state == tcpSynSent:
		return hostos.EAGAIN
	default:
		return hostos.EPIPE
	}
}

// read consumes received bytes into dst.
func (s *Stack) read(c *tcpConn, dst []byte) (int, hostos.Errno) {
	n, err := c.rcvBuf.readInto(s.seg, dst)
	if err != nil {
		return -1, hostos.EFAULT
	}
	s.noteReadDrain(c)
	return n, hostos.OK
}

// noteReadDrain runs after an application read freed receive-buffer
// space: if the drain re-opens a window we advertised as (near) zero,
// the next poll's visit pass will send the window update — flag that
// pending work so the event-driven driver visits that iteration
// instead of leaping over it to the peer's (much later) persist probe,
// and put the connection on that poll's visit list.
func (s *Stack) noteReadDrain(c *tcpConn) {
	if c.needsWindowUpdate() {
		s.wantPoll = true
		s.queueVisit(c)
	}
}

// close shuts a socket down — a stream FINs, a listener stops, a
// datagram socket unbinds — and gives the struct back to the arena.
func (s *Stack) close(sk *socket) {
	s.unregister(sk, nil)
	switch {
	case sk.lst != nil:
		delete(s.listeners, sk.bound)
		for _, c := range sk.lst.pending[sk.lst.head:] {
			c.sendRST()
			c.abort(hostos.ECONNRESET)
			c.inPending = false
			s.maybeRecycleConn(c)
		}
	case sk.conn != nil:
		c := sk.conn
		switch {
		case c.is(writable):
			// RFC 793's CLOSE: our FIN follows every byte queued now,
			// and nothing can be queued after it.
			c.finSeq = c.sndUna + uint32(c.sndBuf.Len())
			c.advance(evClose)
			c.output()
		case c.state == tcpSynSent:
			c.abort(hostos.ECONNRESET)
		}
		// The application can no longer reach the connection: drop the
		// back-reference so the conn struct is recyclable once the
		// protocol is done with it (it may already be).
		c.sk = nil
		s.maybeRecycleConn(c)
	case sk.udp != nil:
		for sk.udp.queued() > 0 {
			s.freeDgramBuf(sk.udp.popDgram().data)
		}
		delete(s.udps, sk.udp.ep)
	}
	s.sockArena.put(sk)
}

// sendTo transmits one UDP datagram from a datagram socket, binding an
// unbound one to an ephemeral port first.
func (s *Stack) sendTo(sk *socket, data []byte, ip IPv4Addr, port uint16) (int, hostos.Errno) {
	if len(data) > udpPayloadMax {
		return -1, hostos.EMSGSIZE
	}
	if sk.udp != nil && sk.udp.err != hostos.OK {
		return -1, sk.udp.err
	}
	if sk.udp == nil {
		if errno := s.bind(sk, IPv4Addr{}, s.allocEphemeral()); errno != hostos.OK {
			return -1, errno
		}
	}
	nif := s.nifForDst(ip)
	if nif == nil {
		return -1, hostos.EINVAL
	}
	segLen := UDPHeaderLen + len(data)
	m, frame := s.txAlloc(IPv4HeaderLen + segLen)
	if m == nil {
		return -1, hostos.EAGAIN
	}
	seg := frame[EthHeaderLen+IPv4HeaderLen:]
	copy(seg[UDPHeaderLen:], data)
	PutUDPHeader(seg, UDPHeader{
		SrcPort: sk.bound.Port,
		DstPort: port,
		Length:  uint16(segLen),
	}, nif.IP, ip)
	if !s.sendIPv4(nif, m, frame, ip, ProtoUDP, segLen) {
		return -1, hostos.EAGAIN
	}
	return len(data), hostos.OK
}

// recvFrom pops one datagram queued on a bound datagram socket.
func (s *Stack) recvFrom(sk *socket, dst []byte) (int, IPv4Addr, uint16, hostos.Errno) {
	switch {
	case sk.udp == nil:
		return -1, IPv4Addr{}, 0, hostos.EINVAL
	case sk.udp.err != hostos.OK:
		return -1, IPv4Addr{}, 0, sk.udp.err
	case sk.udp.queued() == 0:
		return -1, IPv4Addr{}, 0, hostos.EAGAIN
	}
	d := sk.udp.popDgram()
	n := copy(dst, d.data)
	s.freeDgramBuf(d.data)
	return n, d.src.IP, d.src.Port, hostos.OK
}

// inputUDP queues a datagram on its bound socket; nicSum is the
// frame's offload flag (inputIPv4).
func (s *Stack) inputUDP(nif *NetIF, ip IPv4Header, seg []byte, nicSum bool) {
	if nicSum {
		s.stats.RxL4Offload++
	}
	h, err := ParseUDPHeader(seg, ip.Src, ip.Dst, nicSum)
	if err != nil {
		s.stats.RxDropped++
		return
	}
	u, ok := s.udps[tcpEndpoint{IP: ip.Dst, Port: h.DstPort}]
	if !ok {
		u, ok = s.udps[tcpEndpoint{Port: h.DstPort}]
	}
	if !ok {
		s.stats.RxDropped++
		return
	}
	if u.queued() >= udpQueueMax {
		s.stats.UdpQueueDrops++
		if s.obsTr != nil {
			s.obsTr.Record(s.now(), obs.EvUDPDrop, s.obsSrc,
				int64(h.Length)-UDPHeaderLen, int64(u.queued()), int64(h.DstPort))
		}
		return
	}
	data := s.allocDgramBuf()[:int(h.Length)-UDPHeaderLen]
	copy(data, seg[UDPHeaderLen:h.Length])
	u.pushDgram(dgram{
		src:  tcpEndpoint{IP: ip.Src, Port: h.SrcPort},
		data: data,
	})
}

// ConnState reports the TCP state name of the connection behind the
// stack's own descriptor fd (diagnostics).
func (s *Stack) ConnState(fd int) string {
	if f := s.sock(fd); f != nil && f.sk.conn != nil {
		return f.sk.conn.state.String()
	}
	return "NONE"
}

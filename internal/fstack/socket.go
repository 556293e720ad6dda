package fstack

import (
	"repro/internal/cheri"
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

// allocDgramBuf takes a payload buffer off the arena (or allocates one
// at full capacity, so it is reusable for any datagram size).
func (s *Stack) allocDgramBuf() []byte {
	if n := len(s.dgramFree); n > 0 {
		b := s.dgramFree[n-1]
		s.dgramFree[n-1] = nil
		s.dgramFree = s.dgramFree[:n-1]
		return b
	}
	return make([]byte, 0, udpPayloadMax)
}

func (s *Stack) freeDgramBuf(b []byte) {
	s.dgramFree = append(s.dgramFree, b[:0])
}

// socket is one file descriptor. Its size is part of Scenario 8's
// bytes-per-idle-connection figure (Stack.RetainedBytes) and pinned by a
// test: typ shares bound's word so the epoll chain head fits without
// growing the struct.
type socket struct {
	fd int

	bound tcpEndpoint
	typ   int16     // SockStream or SockDgram
	conn  *tcpConn  // stream, after connect/accept
	lst   *listener // stream, after listen
	udp   *udpSock  // dgram, after bind

	// regs chains this descriptor's epoll registrations (epoll.go).
	regs *epollReg
}

// The ff_* API. All calls are non-blocking and take no host lock: a bed
// runs on one goroutine, so they may be made from OnLoop, from a gate
// target or between iterations. F-Stack's serialization against the main
// loop is modelled by sim's crossing-cost table, not by a mutex.

// Socket creates a descriptor of the given type.
func (s *Stack) Socket(typ int) (int, hostos.Errno) {
	if typ != SockStream && typ != SockDgram {
		return -1, hostos.EINVAL
	}
	fd := s.nextFD
	s.nextFD++
	sk := s.allocSocket()
	sk.fd, sk.typ = fd, int16(typ)
	s.socks.put(fd, sk)
	return fd, hostos.OK
}

// allocSocket takes a socket struct off the arena (or the current slab),
// reset to the zero state.
func (s *Stack) allocSocket() *socket {
	var sk *socket
	if n := len(s.sockFree); n > 0 {
		sk = s.sockFree[n-1]
		s.sockFree[n-1] = nil
		s.sockFree = s.sockFree[:n-1]
	} else {
		sk = slabTake(&s.sockSlab)
	}
	*sk = socket{}
	return sk
}

// Bind attaches a local address. A zero IP binds all interfaces.
func (s *Stack) Bind(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	sk := s.socks.get(fd)
	if sk == nil {
		return hostos.EBADF
	}
	if sk.bound.Port != 0 {
		return hostos.EINVAL
	}
	if ip != (IPv4Addr{}) && s.nifByIP(ip) == nil {
		return hostos.EINVAL
	}
	ep := tcpEndpoint{IP: ip, Port: port}
	switch sk.typ {
	case SockStream:
		if _, dup := s.listeners[ep]; dup {
			return hostos.EADDRINUSE
		}
	case SockDgram:
		if _, dup := s.udps[ep]; dup {
			return hostos.EADDRINUSE
		}
		sk.udp = &udpSock{sk: sk, ep: ep}
		s.udps[ep] = sk.udp
		sk.wake() // a bound datagram socket is writable
	}
	sk.bound = ep
	return hostos.OK
}

// Listen makes a bound stream socket passive.
func (s *Stack) Listen(fd, backlog int) hostos.Errno {
	sk := s.socks.get(fd)
	if sk == nil {
		return hostos.EBADF
	}
	if sk.typ != SockStream || sk.bound.Port == 0 || sk.lst != nil || sk.conn != nil {
		return hostos.EINVAL
	}
	if backlog < 1 {
		backlog = 1
	}
	sk.lst = &listener{sk: sk, backlog: backlog}
	s.listeners[sk.bound] = sk.lst
	return hostos.OK
}

// Accept takes one established connection off the listen queue,
// returning its new descriptor and the peer address. EAGAIN when none
// is ready.
func (s *Stack) Accept(fd int) (int, IPv4Addr, uint16, hostos.Errno) {
	sk := s.socks.get(fd)
	if sk == nil {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	if sk.lst == nil {
		return -1, IPv4Addr{}, 0, hostos.EINVAL
	}
	if sk.lst.err != hostos.OK {
		return -1, IPv4Addr{}, 0, sk.lst.err
	}
	if sk.lst.pendingCount() == 0 {
		return -1, IPv4Addr{}, 0, hostos.EAGAIN
	}
	c := sk.lst.popPending()
	nfd := s.nextFD
	s.nextFD++
	nsk := s.allocSocket()
	nsk.fd, nsk.typ, nsk.conn, nsk.bound = nfd, SockStream, c, c.tuple.local
	c.sk = nsk
	s.socks.put(nfd, nsk)
	return nfd, c.tuple.remote.IP, c.tuple.remote.Port, hostos.OK
}

// Connect starts an active open. It returns EINPROGRESS; completion is
// reported by epoll writability, as with a non-blocking BSD socket.
func (s *Stack) Connect(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	sk := s.socks.get(fd)
	if sk == nil {
		return hostos.EBADF
	}
	if sk.typ != SockStream || sk.conn != nil || sk.lst != nil {
		return hostos.EISCONN
	}
	nif := s.nifForDst(ip)
	if nif == nil {
		return hostos.EINVAL
	}
	local := sk.bound
	if local.IP == (IPv4Addr{}) {
		local.IP = nif.IP
	}
	if local.Port == 0 {
		local.Port = s.allocEphemeral()
		if local.Port == 0 {
			return hostos.EADDRNOTAVAIL
		}
	}
	tuple := fourTuple{local: local, remote: tcpEndpoint{IP: ip, Port: port}}
	if old, dup := s.conns[tuple]; dup {
		if old.state != tcpTimeWait {
			return hostos.EADDRINUSE
		}
		// TIME_WAIT reuse on active open: the old incarnation only
		// waits out 2MSL to absorb stray segments; a fresh outgoing
		// connection may take the tuple over immediately (the new ISS
		// is far from the old sequence space).
		s.stats.TimeWaitReuses++
		old.setState(tcpClosed)
		s.removeConn(old)
	}
	c, err := s.newTCPConn(nif, tuple)
	if err != nil {
		return hostos.ENOMEM
	}
	iss := s.iss()
	c.sndUna, c.sndNxt, c.sndMax = iss, iss+1, iss+1
	c.setState(tcpSynSent)
	s.addConn(tuple, c)
	sk.conn = c
	sk.bound = local
	c.sk = sk
	c.sendSegment(TCPSyn, iss, 0, true)
	c.armRTO()
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

// connFor returns the stream connection behind fd.
func (s *Stack) connFor(fd int) (*socket, *tcpConn, hostos.Errno) {
	sk := s.socks.get(fd)
	if sk == nil {
		return nil, nil, hostos.EBADF
	}
	if sk.typ != SockStream || sk.conn == nil {
		return sk, nil, hostos.ENOTCONN
	}
	return sk, sk.conn, hostos.OK
}

// Write copies from a plain byte slice into the socket send buffer
// (the Baseline's ff_write). Partial writes return the stored count;
// a full buffer returns EAGAIN.
func (s *Stack) Write(fd int, src []byte) (int, hostos.Errno) {
	c, errno := s.writableConn(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	return s.write(c, src)
}

// WriteCap is the CHERI ff_write: the source buffer arrives as a
// capability (`const void * __capability buf`, §III-B). The load is
// checked once, over exactly the bytes the send buffer takes now, so a
// capability fault stores nothing; a full buffer is EAGAIN unchecked.
func (s *Stack) WriteCap(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	c, errno := s.writableConn(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	if n = min(n, c.sndBuf.Free()); n <= 0 {
		return -1, hostos.EAGAIN
	}
	src, err := mem.CheckedSliceRO(buf, buf.Addr(), n)
	if err != nil {
		return -1, hostos.EFAULT
	}
	return s.write(c, src)
}

// write stores src in a writable connection's send buffer, books the
// call and sends what the window allows.
func (s *Stack) write(c *tcpConn, src []byte) (int, hostos.Errno) {
	n, err := c.sndBuf.writeFrom(src)
	if err != nil {
		return -1, hostos.EFAULT
	}
	if n == 0 {
		return -1, hostos.EAGAIN
	}
	s.Core.Book(s.now(), sim.WriteCallNS+sim.CopyNS(n)) // a refused write costs nothing
	c.output()
	return n, hostos.OK
}

// writableConn resolves fd to a connection that takes writes now.
func (s *Stack) writableConn(fd int) (*tcpConn, hostos.Errno) {
	_, c, errno := s.connFor(fd)
	if errno != hostos.OK {
		return nil, errno
	}
	return c, writableState(c)
}

// WriteRoom bounds what WriteCap on fd would load now: the send buffer's
// free space while the connection takes writes, 0 when WriteCap would
// refuse. It is never below what WriteCap loads, so a caller staging
// only that many bytes hands over every byte the stack takes. A query,
// not a call: it changes and books nothing.
func (s *Stack) WriteRoom(fd int) int {
	c, errno := s.writableConn(fd)
	if errno != hostos.OK {
		return 0
	}
	return c.sndBuf.Free()
}

// writableState maps connection state to a write errno.
func writableState(c *tcpConn) hostos.Errno {
	if c.sockErr != hostos.OK {
		return c.sockErr
	}
	switch c.state {
	case tcpEstablished, tcpCloseWait:
		return hostos.OK
	case tcpSynSent, tcpSynReceived:
		return hostos.EAGAIN
	default:
		return hostos.EPIPE
	}
}

// Read consumes received bytes into a plain slice. Returns 0 at EOF
// (peer FIN drained), EAGAIN when no data is buffered.
func (s *Stack) Read(fd int, dst []byte) (int, hostos.Errno) {
	c, n, errno := s.readableConn(fd)
	if c == nil {
		return n, errno
	}
	return s.read(c, dst)
}

// ReadCap is the CHERI ff_read: the store into the caller's capability
// buffer is checked once, over exactly the bytes the read takes.
func (s *Stack) ReadCap(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	c, ret, errno := s.readableConn(fd)
	if c == nil {
		return ret, errno
	}
	var dst []byte
	if n = min(n, c.rcvBuf.Len()); n > 0 {
		var err error
		if dst, err = mem.CheckedSlice(buf, buf.Addr(), n); err != nil {
			return -1, hostos.EFAULT
		}
	}
	return s.read(c, dst)
}

// readableConn resolves fd to a connection with bytes to read. With
// none buffered it returns a nil connection and what the read returns
// instead: 0 at EOF, otherwise -1 and the errno.
func (s *Stack) readableConn(fd int) (*tcpConn, int, hostos.Errno) {
	_, c, errno := s.connFor(fd)
	switch {
	case errno != hostos.OK:
		return nil, -1, errno
	case c.rcvBuf.Len() > 0:
		return c, 0, hostos.OK
	case c.sockErr != hostos.OK:
		return nil, -1, c.sockErr
	case c.finRcvd:
		return nil, 0, hostos.OK // EOF
	case c.state == tcpClosed:
		return nil, -1, hostos.ENOTCONN
	default:
		return nil, -1, hostos.EAGAIN
	}
}

// read consumes received bytes into dst.
func (s *Stack) read(c *tcpConn, dst []byte) (int, hostos.Errno) {
	n, err := c.rcvBuf.readInto(dst)
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
// and put the connection in that poll's visit set.
func (s *Stack) noteReadDrain(c *tcpConn) {
	if c.needsWindowUpdate() {
		s.wantPoll = true
		s.markReady(c)
	}
}

// Close shuts a descriptor down: streams FIN, listeners stop, datagram
// sockets unbind, epoll instances drop their registrations.
func (s *Stack) Close(fd int) hostos.Errno {
	sk := s.socks.get(fd)
	if sk == nil {
		if ep := s.epolls.get(fd); ep != nil {
			s.closeEpoll(fd, ep)
			return hostos.OK
		}
		return hostos.EBADF
	}
	s.socks.del(fd)
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
		if c.state == tcpEstablished || c.state == tcpCloseWait || c.state == tcpSynReceived {
			c.finQueued = true
			c.output()
		} else if c.state == tcpSynSent {
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
	s.sockFree = append(s.sockFree, sk)
	return hostos.OK
}

// SendTo transmits one UDP datagram.
func (s *Stack) SendTo(fd int, data []byte, ip IPv4Addr, port uint16) (int, hostos.Errno) {
	sk := s.socks.get(fd)
	if sk == nil {
		return -1, hostos.EBADF
	}
	if sk.typ != SockDgram {
		return -1, hostos.EINVAL
	}
	if len(data) > udpPayloadMax {
		return -1, hostos.EMSGSIZE
	}
	if sk.udp != nil && sk.udp.err != hostos.OK {
		return -1, sk.udp.err
	}
	if sk.udp == nil {
		// Auto-bind an ephemeral port.
		if errno := s.Bind(fd, IPv4Addr{}, s.allocEphemeral()); errno != hostos.OK {
			return -1, errno
		}
	}
	nif := s.nifForDst(ip)
	if nif == nil {
		return -1, hostos.EINVAL
	}
	segLen := UDPHeaderLen + len(data)
	m, frame := s.txAlloc(nif, IPv4HeaderLen+segLen)
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

// RecvFrom pops one queued datagram.
func (s *Stack) RecvFrom(fd int, dst []byte) (int, IPv4Addr, uint16, hostos.Errno) {
	sk := s.socks.get(fd)
	if sk == nil {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	if sk.typ != SockDgram || sk.udp == nil {
		return -1, IPv4Addr{}, 0, hostos.EINVAL
	}
	if sk.udp.err != hostos.OK {
		return -1, IPv4Addr{}, 0, sk.udp.err
	}
	if sk.udp.queued() == 0 {
		return -1, IPv4Addr{}, 0, hostos.EAGAIN
	}
	d := sk.udp.popDgram()
	n := copy(dst, d.data)
	s.freeDgramBuf(d.data)
	return n, d.src.IP, d.src.Port, hostos.OK
}

// inputUDP queues a datagram on its bound socket.
func (s *Stack) inputUDP(nif *NetIF, ip IPv4Header, seg []byte) {
	h, err := ParseUDPHeader(seg, ip.Src, ip.Dst)
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

// ConnState reports the TCP state name of fd's connection (diagnostics).
func (s *Stack) ConnState(fd int) string {
	sk := s.socks.get(fd)
	if sk == nil || sk.conn == nil {
		return "NONE"
	}
	return sk.conn.state.String()
}

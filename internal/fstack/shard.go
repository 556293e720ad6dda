package fstack

import (
	"cmp"
	"fmt"

	"repro/internal/cheri"
	"repro/internal/dpdk"
	"repro/internal/hostos"
)

// This file is the multi-core answer to the single stack mutex the
// paper inherits from F-Stack (§III-A, Scenario 2): instead of one
// Stack serializing every compartment, a ShardedStack owns N Stack
// instances, each bound to one NIC RX/TX queue pair. The device's RSS
// classifier uses a symmetric flow hash, so both directions of a TCP
// connection arrive on the same queue and a connection's entire
// lifecycle — SYN, data, timers, FIN — runs on exactly one shard. The
// connections, sockets, listeners and timers are all
// shard-local; only ARP/neighbor state is shared (read-mostly, and ARP
// traffic always lands on queue 0). Shards therefore need no
// coordination on the datapath, which is what real F-Stack achieves by
// pinning one stack process per core.

// SteerFunc is the steering oracle: which RX queue the device's RSS
// hash sends an inbound packet with this flow tuple to
// (dpdk.EthDev.RxQueueOf).
type SteerFunc func(src, dst [4]byte, proto byte, sport, dport uint16) int

// ShardedStack is N independent Stacks over one multi-queue device. An
// unsharded stack is a ShardedStack of one.
type ShardedStack struct {
	shards []*Stack
	steer  SteerFunc // of the first interface bound
	// eph and rr are the port and shard rotation every view places an
	// unbound socket by, so two views never pick one source port.
	eph uint16
	rr  int
}

// NewShardedStack builds n shards over the given segment, buffer pool
// and clock.
func NewShardedStack(n int, seg *dpdk.MemSeg, pool *dpdk.Mempool, clk hostos.Clock) (*ShardedStack, error) {
	if n < 1 {
		return nil, fmt.Errorf("fstack: sharded stack needs at least one shard")
	}
	ss := &ShardedStack{eph: 40000}
	for i := 0; i < n; i++ {
		ss.shards = append(ss.shards, NewStack(seg, pool, clk))
	}
	return ss, nil
}

// nextPort takes the next port of the stack's rotation.
func (ss *ShardedStack) nextPort() uint16 {
	p := ss.eph
	ss.eph++
	if ss.eph < 40000 {
		ss.eph = 40000
	}
	return p
}

// AddNetIF binds one interface: shard i drives devs[i] — queue pair i of
// a started multi-queue device, already wrapped in whatever the layout
// puts in front of it — and every shard shares shard 0's ARP cache for
// the interface. steer is that device's steering oracle.
func (ss *ShardedStack) AddNetIF(devs []EthDevice, steer SteerFunc, ip, mask IPv4Addr) error {
	if len(devs) != len(ss.shards) {
		return fmt.Errorf("fstack: %d queue handles for %d shards", len(devs), len(ss.shards))
	}
	arp := ss.shards[0].AddNetIF(devs[0], ip, mask).arp
	for i, s := range ss.shards[1:] {
		s.AddNetIF(devs[i+1], ip, mask).arp = arp
	}
	if ss.steer == nil {
		ss.steer = steer
	}
	return nil
}

// NumShards reports the shard count.
func (ss *ShardedStack) NumShards() int { return len(ss.shards) }

// Shards returns every shard's Stack in shard order — one main loop
// each, each pinned to its own core on real hardware. Callers must not
// mutate the slice.
func (ss *ShardedStack) Shards() []*Stack { return ss.shards }

// Stats aggregates the counters over every shard.
func (ss *ShardedStack) Stats() StackStats {
	var total StackStats
	for _, s := range ss.shards {
		total.Add(s.Stats())
	}
	return total
}

// ConnCount sums established-or-later connections over every shard.
func (ss *ShardedStack) ConnCount() int {
	n := 0
	for _, s := range ss.shards {
		n += s.ConnCount()
	}
	return n
}

// RetainedBytes sums the shards' deterministic connection-plane heap
// accounting (see Stack.RetainedBytes).
func (ss *ShardedStack) RetainedBytes() uint64 {
	var b uint64
	for _, s := range ss.shards {
		b += s.RetainedBytes()
	}
	return b
}

// localIPFor reports the interface address the stack would source
// packets to dst from.
func (s *Stack) localIPFor(dst IPv4Addr) IPv4Addr {
	nif := s.nifForDst(dst)
	if nif == nil {
		return IPv4Addr{}
	}
	return nif.IP
}

// --- the descriptor layer ---

// shardedFD is what one number of a view names: a socket, on the one
// shard it lives on or copied onto every shard, or an epoll number's
// instances, one per shard. It is held by value in the view's table
// page, and its zero value is "no such number".
type shardedFD struct {
	sk *socket // the socket, or its copy on shard 0
	// wide is what a number spread over every shard holds, taken only
	// at Listen, a datagram Bind or EpollCreate; nil while the socket
	// lives on one shard.
	wide *fdWide
	// shard is where sk lives; for an epoll number, the shard EpollWait
	// asks first.
	shard int
}

// fdWide is a spread number's per-shard half: a listener's or a bound
// datagram socket's copies, or an epoll number's instances.
type fdWide struct {
	// peers are the socket's copies, one per shard (peers[0] is sk).
	peers []*socket
	ep    *epollInstance // an epoll number's instance on shard 0; ep.set holds every shard's
}

// on is the number's socket on shard i, nil if it has none there.
func (f *shardedFD) on(i int) *socket {
	if f.wide != nil {
		return f.wide.peers[i]
	}
	if i == f.shard {
		return f.sk
	}
	return nil
}

// epoll is the number's epoll instance on shard 0, nil if it names
// none.
func (f *shardedFD) epoll() *epollInstance {
	if f == nil || f.wide == nil {
		return nil
	}
	return f.wide.ep
}

// ShardedAPI is one caller's descriptor table over a set of shards, the
// way FreeBSD's fd_ofiles is a process's: a number names a socket (or an
// epoll number's instances) directly, and every ff_* call resolves it
// once. A socket lives on shard 0 until it is placed: Listen and a
// datagram Bind copy it onto every shard, so a SYN or a datagram is taken
// on whichever shard RSS steers it to; Connect picks its source port
// first, asks the device's steering oracle which queue the return
// traffic will hit and moves the socket to that shard if it is another.
// Calls touch only the shard(s) they need. A Stack is the view of itself
// alone, and a view of one shard has nothing to steer: its calls are the
// shard's own.
type ShardedAPI struct {
	ss     *ShardedStack // the port and shard rotation; nil in a stack's own view
	shards []*Stack
	next   int // the next number issued
	// fds holds each number's entry in its table page, so a stack that
	// holds a number per parked connection pays for its entries as it
	// does for its pages.
	fds fdTable[shardedFD]
}

// newView is a view of the given shards with no number issued yet.
func newView(ss *ShardedStack, shards []*Stack) ShardedAPI {
	return ShardedAPI{ss: ss, shards: shards, next: 3}
}

// API returns a new view of the stack. A view is a descriptor table: a
// caller acts only on the descriptors its own view issued, and every
// view draws source ports from the stack's one rotation.
func (ss *ShardedStack) API() *ShardedAPI {
	a := newView(ss, ss.shards)
	return &a
}

// alloc issues the next number for f.
func (a *ShardedAPI) alloc(f shardedFD) int {
	fd := a.next
	a.next++
	a.fds.put(fd, f)
	return fd
}

// sock resolves a number that names a socket; nil if it names none.
func (a *ShardedAPI) sock(fd int) *shardedFD {
	if f := a.fds.ref(fd); f != nil && f.sk != nil {
		return f
	}
	return nil
}

// Socket creates a socket of the given type, on shard 0 until placed.
func (a *ShardedAPI) Socket(typ int) (int, hostos.Errno) {
	if typ != SockStream && typ != SockDgram {
		return -1, hostos.EINVAL
	}
	return a.alloc(shardedFD{sk: a.shards[0].newSocket(int16(typ))}), hostos.OK
}

// Bind attaches a local address; a datagram socket is then copied onto
// every shard.
func (a *ShardedAPI) Bind(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	f := a.sock(fd)
	if f == nil {
		return hostos.EBADF
	}
	if errno := a.shards[f.shard].bind(f.sk, ip, port); errno != hostos.OK || f.sk.typ != SockDgram {
		return errno
	}
	return a.spread(f, func(s *Stack, sk *socket) hostos.Errno { return s.openUDP(sk, sk.bound) })
}

// Listen makes a bound stream socket passive and copies it onto every
// shard.
func (a *ShardedAPI) Listen(fd, backlog int) hostos.Errno {
	f := a.sock(fd)
	if f == nil {
		return hostos.EBADF
	}
	if errno := a.shards[f.shard].listen(f.sk, backlog); errno != hostos.OK {
		return errno
	}
	return a.spread(f, func(s *Stack, sk *socket) hostos.Errno { return s.listen(sk, backlog) })
}

// spread copies f's socket, just made a listener or a bound datagram
// socket on its shard, onto every other shard, where do makes each copy
// the same.
func (a *ShardedAPI) spread(f *shardedFD, do func(*Stack, *socket) hostos.Errno) hostos.Errno {
	if len(a.shards) == 1 {
		return hostos.OK
	}
	peers := make([]*socket, len(a.shards))
	first := hostos.OK
	for i, s := range a.shards {
		sk := f.sk
		if i != f.shard {
			sk = s.copySocket(f.sk, i)
			first = cmp.Or(first, do(s, sk))
		}
		peers[i] = sk
	}
	f.sk, f.wide, f.shard = peers[0], &fdWide{peers: peers}, 0
	return first
}

// Accept dequeues an established connection from the first shard that
// has one; the new number names that shard's socket.
func (a *ShardedAPI) Accept(fd int) (int, IPv4Addr, uint16, hostos.Errno) {
	f := a.sock(fd)
	if f == nil {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	for i, s := range a.shards {
		sk := f.on(i)
		if sk == nil {
			continue
		}
		nsk, errno := s.accept(sk)
		if errno == hostos.EAGAIN {
			continue
		}
		if errno != hostos.OK {
			return -1, IPv4Addr{}, 0, errno
		}
		peer := nsk.conn.tuple.remote
		return a.alloc(shardedFD{sk: nsk, shard: i}), peer.IP, peer.Port, hostos.OK
	}
	return -1, IPv4Addr{}, 0, hostos.EAGAIN
}

// Connect starts an active open on the shard the flow's return traffic
// will reach. An unbound socket gets its source port picked by the
// steering oracle so consecutive connections round-robin the shards
// (the ephemeral-port engineering sharded clients do in practice); an
// explicitly bound port pins the connection to wherever that tuple
// actually hashes. The socket moves there before the open, so inbound
// segments need no cross-shard hand-off; if the open fails it stays
// there, unconnected, for the caller to retry or close. With one shard
// there is nothing to steer, and the shard picks its own port.
func (a *ShardedAPI) Connect(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	f := a.sock(fd)
	if f == nil {
		return hostos.EBADF
	}
	if f.sk.typ != SockStream || f.sk.conn != nil || f.sk.lst != nil {
		return hostos.EISCONN
	}
	shard, sport := f.shard, uint16(0)
	if ss := a.ss; len(a.shards) > 1 {
		if ss.steer == nil {
			return hostos.EINVAL
		}
		localIP := f.sk.bound.IP
		if localIP == (IPv4Addr{}) {
			localIP = a.shards[0].localIPFor(ip)
		}
		if sport = f.sk.bound.Port; sport == 0 {
			// Inbound segments of this flow will carry src=(ip,port),
			// dst=(local,sport): walk the stack's rotation until the
			// tuple hashes to the round-robin target shard.
			want := ss.rr % len(a.shards)
			ss.rr++
			for try := 0; try < 512; try++ {
				if p := ss.nextPort(); ss.steer(ip, localIP, ProtoTCP, port, p) == want {
					sport = p
					break
				}
			}
			if sport == 0 { // no hit in the window: take the next port as-is
				sport = ss.nextPort()
			}
		}
		if shard = ss.steer(ip, localIP, ProtoTCP, port, sport); shard != f.shard {
			sk := a.shards[shard].copySocket(f.sk, shard)
			a.shards[f.shard].close(f.sk)
			f.sk, f.shard = sk, shard
		}
	}
	return a.shards[shard].connect(f.sk, ip, port, sport)
}

// ShardOf is the shard whose thread a call on fd starts on: a socket's
// own (shard 0 for one copied onto every shard), an epoll number's next,
// else shard 0.
func (a *ShardedAPI) ShardOf(fd int) *Stack {
	shard := 0
	if f := a.fds.ref(fd); f != nil {
		shard = f.shard
	}
	return a.shards[shard]
}

// conn resolves a number that names a connection, and its shard.
func (a *ShardedAPI) conn(fd int) (*Stack, *tcpConn, hostos.Errno) {
	f := a.sock(fd)
	if f == nil {
		return nil, nil, hostos.EBADF
	}
	if f.sk.conn == nil {
		return nil, nil, hostos.ENOTCONN
	}
	return a.shards[f.shard], f.sk.conn, hostos.OK
}

// writable resolves fd to a connection that takes writes now.
func (a *ShardedAPI) writable(fd int) (*Stack, *tcpConn, hostos.Errno) {
	s, c, errno := a.conn(fd)
	if errno == hostos.OK {
		errno = writableState(c)
	}
	return s, c, errno
}

// Write copies from a plain byte slice into the socket send buffer
// (the Baseline's ff_write). Partial writes return the stored count;
// a full buffer returns EAGAIN.
func (a *ShardedAPI) Write(fd int, src []byte) (int, hostos.Errno) {
	s, c, errno := a.writable(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	return s.write(c, src)
}

// WriteCap is the CHERI ff_write: the source buffer arrives as a
// capability (`const void * __capability buf`, §III-B). The load is
// checked once, over exactly the bytes the send buffer takes now, so a
// capability fault stores nothing; a full buffer is EAGAIN unchecked.
func (a *ShardedAPI) WriteCap(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	s, c, errno := a.writable(fd)
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

// WriteRoom bounds what WriteCap on fd would load now: the send buffer's
// free space while the connection takes writes, 0 when WriteCap would
// refuse. It is never below what WriteCap loads, so a caller staging
// only that many bytes hands over every byte the stack takes. A query,
// not a call: it changes and books nothing.
func (a *ShardedAPI) WriteRoom(fd int) int {
	_, c, errno := a.writable(fd)
	if errno != hostos.OK {
		return 0
	}
	return c.sndBuf.Free()
}

// Read consumes received bytes into a plain slice. Returns 0 at EOF
// (peer FIN drained), EAGAIN when no data is buffered.
func (a *ShardedAPI) Read(fd int, dst []byte) (int, hostos.Errno) {
	s, c, n, errno := a.readable(fd)
	if c == nil {
		return n, errno
	}
	return s.read(c, dst)
}

// ReadCap is the CHERI ff_read: the store into the caller's capability
// buffer is checked once, over exactly the bytes the read takes.
func (a *ShardedAPI) ReadCap(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	s, c, ret, errno := a.readable(fd)
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

// readable resolves fd to a connection with bytes to read. With none
// buffered it returns a nil connection and what the read returns
// instead: 0 at EOF, otherwise -1 and the errno.
func (a *ShardedAPI) readable(fd int) (*Stack, *tcpConn, int, hostos.Errno) {
	s, c, errno := a.conn(fd)
	switch {
	case errno != hostos.OK:
		return nil, nil, -1, errno
	case c.rcvBuf.Len() > 0:
		return s, c, 0, hostos.OK
	case c.err() != hostos.OK:
		return nil, nil, -1, c.err()
	case c.peerFin():
		return nil, nil, 0, hostos.OK // EOF
	case c.state == tcpClosed:
		return nil, nil, -1, hostos.ENOTCONN
	default:
		return nil, nil, -1, hostos.EAGAIN
	}
}

// SendTo transmits one datagram. Across several shards an unbound
// socket is first bound to the next port of the stack's rotation (and so
// copied onto every shard), and the datagram leaves by the shard whose
// RX queue the flow's return traffic will hit, keeping both directions
// of a query/answer exchange on one shard the way a connection is. On
// one shard the shard auto-binds an unbound socket itself.
func (a *ShardedAPI) SendTo(fd int, data []byte, ip IPv4Addr, port uint16) (int, hostos.Errno) {
	f := a.sock(fd)
	if f == nil {
		return -1, hostos.EBADF
	}
	if f.sk.typ != SockDgram {
		return -1, hostos.EINVAL
	}
	if len(a.shards) == 1 {
		return a.shards[0].sendTo(f.sk, data, ip, port)
	}
	if f.sk.udp == nil {
		if errno := a.Bind(fd, IPv4Addr{}, a.ss.nextPort()); errno != hostos.OK {
			return -1, errno
		}
	}
	shard := 0
	if steer := a.ss.steer; steer != nil {
		localIP := f.sk.bound.IP
		if localIP == (IPv4Addr{}) {
			localIP = a.shards[0].localIPFor(ip)
		}
		shard = steer(ip, localIP, ProtoUDP, port, f.sk.bound.Port)
	}
	return a.shards[shard].sendTo(f.on(shard), data, ip, port)
}

// RecvFrom pops the oldest queued datagram, scanning shards in shard
// order (deterministic under the fixed RSS steering).
func (a *ShardedAPI) RecvFrom(fd int, dst []byte) (int, IPv4Addr, uint16, hostos.Errno) {
	f := a.sock(fd)
	if f == nil {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	for i, s := range a.shards {
		if sk := f.on(i); sk != nil {
			if n, ip, port, errno := s.recvFrom(sk, dst); errno != hostos.EAGAIN {
				return n, ip, port, errno
			}
		}
	}
	return -1, IPv4Addr{}, 0, hostos.EAGAIN
}

// Close releases the number and shuts what it names down on every shard
// that holds a piece of it: a socket's copies, an epoll number's
// instances with their registrations.
func (a *ShardedAPI) Close(fd int) hostos.Errno {
	p := a.fds.ref(fd)
	if p == nil {
		return hostos.EBADF
	}
	f := *p
	a.fds.del(fd)
	ep := f.epoll()
	for i, s := range a.shards {
		if ep != nil {
			s.dropRegs(&ep.set[i])
		} else if sk := f.on(i); sk != nil {
			s.close(sk)
		}
	}
	return hostos.OK
}

// EpollCreate makes an epoll number: an instance on every shard.
func (a *ShardedAPI) EpollCreate() int {
	return a.alloc(shardedFD{wide: &fdWide{ep: &newEpollSet(len(a.shards))[0]}})
}

// EpollCtl changes fd's registration with epfd on every shard fd has a
// socket on. A registration carries fd: EpollWait reports it as is.
func (a *ShardedAPI) EpollCtl(epfd, op, fd int, events uint32) hostos.Errno {
	ep, f := a.fds.ref(epfd).epoll(), a.sock(fd)
	if ep == nil || f == nil {
		return hostos.EBADF
	}
	for i, s := range a.shards {
		if sk := f.on(i); sk != nil {
			if errno := s.epollCtl(&ep.set[i], op, sk, int32(fd), events); errno != hostos.OK {
				return errno
			}
		}
	}
	return hostos.OK
}

// EpollWait collects ready events across every shard.
func (a *ShardedAPI) EpollWait(epfd int, evs []Event) (int, hostos.Errno) {
	f := a.fds.ref(epfd)
	ep := f.epoll()
	if ep == nil {
		return -1, hostos.EBADF
	}
	// Each shard reports straight into what is left of the caller's
	// buffer: whatever does not fit stays queued on its shard, in order,
	// for the next call. The shards are asked from f.shard on, and a
	// call that runs out of room moves it to the first shard it could
	// not ask, so a full shard cannot keep the buffer to itself; a call
	// with room for every shard leaves it where it was.
	n, shards := 0, len(a.shards)
	for j := range shards {
		i := (f.shard + j) % shards
		if n == len(evs) {
			f.shard = i
			break
		}
		n += a.shards[i].epollWait(&ep.set[i], evs[n:])
	}
	return n, hostos.OK
}

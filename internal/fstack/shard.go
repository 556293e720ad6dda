package fstack

import (
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
// connection table, socket table, listeners and timers are all
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

// --- sharded application API ---

// sfKind distinguishes the logical descriptor flavors.
type sfKind int

const (
	sfSocket   sfKind = iota // created, not yet placed on a shard
	sfListener               // cloned across every shard
	sfConn                   // pinned to one shard
	sfEpoll                  // cloned across every shard
)

// shardedFD is one logical descriptor of the ShardedAPI.
type shardedFD struct {
	kind  sfKind
	typ   int
	shard int   // sfConn: owning shard; sfEpoll: where EpollWait starts; else -1
	fd    int   // sfConn: descriptor on that shard
	sub   []int // cloned kinds: descriptor per shard
	bound struct {
		ip   IPv4Addr
		port uint16
	}
}

// ShardedAPI is one caller's view of a ShardedStack: the same ff_*
// surface as a single stack, with descriptors fanned out underneath.
// Listening sockets are cloned on every shard, so a SYN is accepted on
// whichever shard RSS steers it to; established connections are pinned
// to their shard; locally initiated connections pick their source port
// first, ask the device's steering oracle which queue the return
// traffic will hit, and are created on that shard. Calls touch only the
// shard(s) they need. A view of one shard has nothing to steer: its
// calls are the shard's own.
type ShardedAPI struct {
	ss     *ShardedStack
	nextFD int
	fds    fdTable[*shardedFD]
	rev    []fdTable[int] // per shard: shard fd -> logical fd
	fdSlab []shardedFD    // unissued tail of the current slab (slabLen)
}

// API returns a new view of the stack. A view is a descriptor table: a
// caller acts only on the descriptors its own view issued, and every
// view draws source ports from the stack's one rotation.
func (ss *ShardedStack) API() *ShardedAPI {
	return &ShardedAPI{ss: ss, nextFD: 3, rev: make([]fdTable[int], len(ss.shards))}
}

// alloc registers a logical descriptor, its struct taken from a slab
// refilled slabLen at a time.
func (a *ShardedAPI) alloc(f shardedFD) int {
	p := slabTake(&a.fdSlab)
	*p = f
	fd := a.nextFD
	a.nextFD++
	a.fds.put(fd, p)
	return fd
}

// Socket creates a descriptor. It exists on every shard until Listen or
// Connect decides whether it is cloned or pinned.
func (a *ShardedAPI) Socket(typ int) (int, hostos.Errno) {
	sub := make([]int, len(a.ss.shards))
	for i, s := range a.ss.shards {
		fd, errno := s.Socket(typ)
		if errno != hostos.OK {
			for j := 0; j < i; j++ {
				a.ss.shards[j].Close(sub[j])
			}
			return -1, errno
		}
		sub[i] = fd
	}
	lfd := a.alloc(shardedFD{kind: sfSocket, typ: typ, shard: -1, sub: sub})
	for i := range a.ss.shards {
		a.rev[i].put(sub[i], lfd)
	}
	return lfd, hostos.OK
}

// Bind attaches a local address on every shard.
func (a *ShardedAPI) Bind(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	f := a.fds.get(fd)
	if f == nil {
		return hostos.EBADF
	}
	if f.kind != sfSocket {
		return hostos.EINVAL
	}
	for i, s := range a.ss.shards {
		if errno := s.Bind(f.sub[i], ip, port); errno != hostos.OK {
			return errno
		}
	}
	f.bound.ip, f.bound.port = ip, port
	return hostos.OK
}

// Listen clones the listener across every shard.
func (a *ShardedAPI) Listen(fd, backlog int) hostos.Errno {
	f := a.fds.get(fd)
	if f == nil {
		return hostos.EBADF
	}
	if f.kind != sfSocket || f.typ != SockStream {
		return hostos.EINVAL
	}
	for i, s := range a.ss.shards {
		if errno := s.Listen(f.sub[i], backlog); errno != hostos.OK {
			return errno
		}
	}
	f.kind = sfListener
	return hostos.OK
}

// Accept dequeues an established connection from whichever shard has
// one; the returned descriptor is pinned to that shard.
func (a *ShardedAPI) Accept(fd int) (int, IPv4Addr, uint16, hostos.Errno) {
	f := a.fds.get(fd)
	if f == nil {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	if f.kind != sfListener {
		return -1, IPv4Addr{}, 0, hostos.EINVAL
	}
	for i, s := range a.ss.shards {
		nfd, ip, port, errno := s.Accept(f.sub[i])
		if errno == hostos.EAGAIN {
			continue
		}
		if errno != hostos.OK {
			return -1, IPv4Addr{}, 0, errno
		}
		lfd := a.alloc(shardedFD{kind: sfConn, typ: SockStream, shard: i, fd: nfd})
		a.rev[i].put(nfd, lfd)
		return lfd, ip, port, hostos.OK
	}
	return -1, IPv4Addr{}, 0, hostos.EAGAIN
}

// Connect starts an active open on the shard the flow's return traffic
// will reach. An unbound socket gets its source port picked by the
// steering oracle so consecutive connections round-robin the shards
// (the ephemeral-port engineering sharded clients do in practice); an
// explicitly bound port pins the connection to wherever that tuple
// actually hashes. Either way the clones on the other shards are
// discarded and inbound segments need no cross-shard hand-off. With one
// shard there is nothing to steer, and the shard picks its own port.
func (a *ShardedAPI) Connect(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	f := a.fds.get(fd)
	if f == nil {
		return hostos.EBADF
	}
	if f.kind != sfSocket || f.typ != SockStream {
		return hostos.EINVAL
	}
	ss, shard := a.ss, 0
	if len(ss.shards) > 1 {
		if ss.steer == nil {
			return hostos.EINVAL
		}
		localIP := f.bound.ip
		if localIP == (IPv4Addr{}) {
			localIP = ss.shards[0].localIPFor(ip)
		}
		sport := f.bound.port
		if sport == 0 {
			// Inbound segments of this flow will carry src=(ip,port),
			// dst=(local,sport): walk the stack's rotation until the
			// tuple hashes to the round-robin target shard.
			want := ss.rr % len(ss.shards)
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
		shard = ss.steer(ip, localIP, ProtoTCP, port, sport)
		// Bind and connect on the target shard BEFORE discarding the
		// other shards' clones: on failure the logical descriptor stays
		// a plain socket with every clone intact, so the caller can
		// retry or close it normally.
		if f.bound.port == 0 {
			if errno := ss.shards[shard].Bind(f.sub[shard], f.bound.ip, sport); errno != hostos.OK {
				return errno
			}
		}
	}
	sfd := f.sub[shard]
	errno := ss.shards[shard].Connect(sfd, ip, port)
	if errno != hostos.OK && errno != hostos.EINPROGRESS {
		return errno
	}
	for i, other := range ss.shards {
		if i == shard {
			continue
		}
		other.Close(f.sub[i])
		a.rev[i].del(f.sub[i])
	}
	f.kind, f.shard, f.fd, f.sub = sfConn, shard, sfd, nil
	return errno
}

// ShardOf is the shard whose thread a call on fd starts on: a connection's
// own, an epoll instance's next, else (listener, unplaced, none) shard 0.
func (a *ShardedAPI) ShardOf(fd int) *Stack {
	shard := 0
	if f := a.fds.get(fd); f != nil {
		shard = max(f.shard, 0)
	}
	return a.ss.shards[shard]
}

// conn resolves a pinned descriptor.
func (a *ShardedAPI) conn(fd int) (*Stack, *shardedFD, hostos.Errno) {
	f := a.fds.get(fd)
	if f == nil {
		return nil, nil, hostos.EBADF
	}
	if f.kind != sfConn {
		return nil, nil, hostos.ENOTCONN
	}
	return a.ss.shards[f.shard], f, hostos.OK
}

// Read consumes received bytes from the connection's shard.
func (a *ShardedAPI) Read(fd int, dst []byte) (int, hostos.Errno) {
	s, f, errno := a.conn(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	return s.Read(f.fd, dst)
}

// Write stores bytes for transmission on the connection's shard.
func (a *ShardedAPI) Write(fd int, src []byte) (int, hostos.Errno) {
	s, f, errno := a.conn(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	return s.Write(f.fd, src)
}

// ReadCap and WriteCap are Read and Write through a capability buffer
// (what a gate target hands down), on the connection's shard.
func (a *ShardedAPI) ReadCap(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	s, f, errno := a.conn(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	return s.ReadCap(f.fd, mem, buf, n)
}

func (a *ShardedAPI) WriteCap(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	s, f, errno := a.conn(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	return s.WriteCap(f.fd, mem, buf, n)
}

// WriteRoom is Stack.WriteRoom on the connection's shard: 0 for a
// descriptor that is not a connection.
func (a *ShardedAPI) WriteRoom(fd int) int {
	s, f, errno := a.conn(fd)
	if errno != hostos.OK {
		return 0
	}
	return s.WriteRoom(f.fd)
}

// SendTo transmits one datagram. A bound UDP socket stays cloned across
// every shard (Bind fans out), so datagrams are received wherever RSS
// steers them; transmission goes through the shard whose RX queue the
// flow's return traffic will hit, keeping both directions of a
// query/answer exchange on one shard the way pinned TCP connections are.
func (a *ShardedAPI) SendTo(fd int, data []byte, ip IPv4Addr, port uint16) (int, hostos.Errno) {
	f := a.fds.get(fd)
	if f == nil {
		return -1, hostos.EBADF
	}
	if f.kind != sfSocket || f.typ != SockDgram {
		return -1, hostos.EINVAL
	}
	if len(a.ss.shards) == 1 {
		// Nothing to steer: the shard auto-binds an unbound socket itself.
		return a.ss.shards[0].SendTo(f.sub[0], data, ip, port)
	}
	if f.bound.port == 0 {
		// Auto-bind one port of the stack's rotation on every shard, like
		// a single stack's SendTo: answers are then queued on whichever
		// shard RSS picks and RecvFrom scans them all.
		if errno := a.Bind(fd, IPv4Addr{}, a.ss.nextPort()); errno != hostos.OK {
			return -1, errno
		}
	}
	shard := 0
	if steer := a.ss.steer; steer != nil {
		localIP := f.bound.ip
		if localIP == (IPv4Addr{}) {
			localIP = a.ss.shards[0].localIPFor(ip)
		}
		shard = steer(ip, localIP, ProtoUDP, port, f.bound.port)
	}
	return a.ss.shards[shard].SendTo(f.sub[shard], data, ip, port)
}

// RecvFrom pops the oldest queued datagram, scanning shards in shard
// order (deterministic under the fixed RSS steering).
func (a *ShardedAPI) RecvFrom(fd int, dst []byte) (int, IPv4Addr, uint16, hostos.Errno) {
	f := a.fds.get(fd)
	if f == nil {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	if f.kind != sfSocket || f.typ != SockDgram {
		return -1, IPv4Addr{}, 0, hostos.EINVAL
	}
	for i, s := range a.ss.shards {
		n, ip, port, errno := s.RecvFrom(f.sub[i], dst)
		if errno == hostos.OK {
			return n, ip, port, hostos.OK
		}
		if errno != hostos.EAGAIN {
			return -1, IPv4Addr{}, 0, errno
		}
	}
	return -1, IPv4Addr{}, 0, hostos.EAGAIN
}

// Close shuts the logical descriptor down on every shard that holds a
// piece of it.
func (a *ShardedAPI) Close(fd int) hostos.Errno {
	f := a.fds.get(fd)
	if f == nil {
		return hostos.EBADF
	}
	a.fds.del(fd)
	switch f.kind {
	case sfConn:
		a.rev[f.shard].del(f.fd)
		return a.ss.shards[f.shard].Close(f.fd)
	default:
		var first hostos.Errno = hostos.OK
		for i, s := range a.ss.shards {
			a.rev[i].del(f.sub[i])
			if errno := s.Close(f.sub[i]); errno != hostos.OK && first == hostos.OK {
				first = errno
			}
		}
		return first
	}
}

// EpollCreate makes a logical epoll descriptor cloned on every shard.
func (a *ShardedAPI) EpollCreate() int {
	sub := make([]int, len(a.ss.shards))
	for i, s := range a.ss.shards {
		sub[i] = s.EpollCreate()
	}
	return a.alloc(shardedFD{kind: sfEpoll, sub: sub})
}

// EpollCtl manipulates the interest set: pinned targets on their shard,
// cloned targets on every shard.
func (a *ShardedAPI) EpollCtl(epfd, op, fd int, events uint32) hostos.Errno {
	ep, f := a.fds.get(epfd), a.fds.get(fd)
	if ep == nil || ep.kind != sfEpoll || f == nil {
		return hostos.EBADF
	}
	if f.kind == sfConn {
		return a.ss.shards[f.shard].EpollCtl(ep.sub[f.shard], op, f.fd, events)
	}
	for i, s := range a.ss.shards {
		if errno := s.EpollCtl(ep.sub[i], op, f.sub[i], events); errno != hostos.OK {
			return errno
		}
	}
	return hostos.OK
}

// EpollWait collects ready events across every shard, translated back
// to logical descriptors.
func (a *ShardedAPI) EpollWait(epfd int, evs []Event) (int, hostos.Errno) {
	ep := a.fds.get(epfd)
	if ep == nil || ep.kind != sfEpoll {
		return -1, hostos.EBADF
	}
	// Each shard reports straight into what is left of the caller's
	// buffer and the descriptors are translated in place: whatever does
	// not fit stays queued on its shard, in order, for the next call.
	// The shards are asked from ep.shard on, and a call that runs out of
	// room moves it to the first shard it could not ask, so a full shard
	// cannot keep the buffer to itself; a call with room for every shard
	// leaves it where it was.
	n, shards := 0, len(a.ss.shards)
	for j := range shards {
		i := (ep.shard + j) % shards
		if n == len(evs) {
			ep.shard = i
			break
		}
		k, errno := a.ss.shards[i].EpollWait(ep.sub[i], evs[n:])
		if errno != hostos.OK {
			return -1, errno
		}
		for _, ev := range evs[n : n+k] {
			lfd := a.rev[i].get(ev.FD)
			if lfd == 0 {
				continue // descriptor raced with Close
			}
			evs[n] = Event{FD: lfd, Events: ev.Events}
			n++
		}
	}
	return n, hostos.OK
}

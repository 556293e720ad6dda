package fstack

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hostos"
	"repro/internal/nic"
	"repro/internal/sim"
)

// This file holds EpollWait's reference — the full-interest scan it used
// to be — and drives two machines through a seeded random mix of socket
// calls, epoll calls, deliveries, losses, timeouts, resets and crashes,
// comparing the pushed ready list against the scan after every step. A
// site that raises a readiness bit without a wake shows up as an event
// the scan reports and EpollWait does not.

// epollAPI is the descriptor surface the differential driver uses; a
// *Stack and a *ShardedAPI both provide it.
type epollAPI interface {
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

// scanInterest is the reference: evaluate the readiness predicate of
// every registered descriptor, ready or not. sockOf resolves a
// descriptor to its socket (nil: not on this stack).
func scanInterest(interest map[int]uint32, sockOf func(fd int) *socket, out []Event) []Event {
	for fd, want := range interest {
		sk := sockOf(fd)
		if sk == nil {
			continue
		}
		if got := sk.readiness() & (want | EPOLLERR | EPOLLHUP); got != 0 {
			out = append(out, Event{FD: fd, Events: got})
		}
	}
	return out
}

// refStack scans a single stack's descriptor table.
func refStack(s *Stack) func(map[int]uint32) []Event {
	return func(interest map[int]uint32) []Event {
		return scanInterest(interest, s.sockOf, nil)
	}
}

// refSharded scans every shard of a ShardedAPI: a socket on the shard
// it lives on, a copied one wherever a copy is ready (so a listener ready
// on two shards is two events, as ShardedAPI.EpollWait reports it).
func refSharded(a *ShardedAPI) func(map[int]uint32) []Event {
	return func(interest map[int]uint32) []Event {
		var out []Event
		for i := range a.shards {
			out = scanInterest(interest, func(fd int) *socket {
				if f := a.sock(fd); f != nil {
					return f.on(i)
				}
				return nil
			}, out)
		}
		return out
	}
}

func sortEvents(evs []Event) {
	slices.SortFunc(evs, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.FD, b.FD), cmp.Compare(a.Events, b.Events))
	})
}

// diffMachine is one end of the rig plus the driver's model of it.
type diffMachine struct {
	name   string
	api    epollAPI
	stacks []*Stack
	ip     IPv4Addr
	ref    func(interest map[int]uint32) []Event
	// oneAtATime: len(evs)=1 waits are checked too. Not on a sharded
	// machine, where the shards take turns per call, so a shard with
	// fewer ready entries repeats one before a fuller shard is through.
	oneAtATime bool

	interest map[int]map[int]uint32 // epfd -> fd -> mask, as EpollCtl accepted it
	open     []int                  // every open socket descriptor
	lports   []uint16               // ports ever listened on
	uports   []uint16               // ports ever bound for datagrams
}

func (m *diffMachine) poll() {
	for _, s := range m.stacks {
		s.PollOnce()
	}
}

func (m *diffMachine) forget(fd int) {
	if i := slices.Index(m.open, fd); i >= 0 {
		m.open = slices.Delete(m.open, i, i+1)
	}
	for _, set := range m.interest {
		delete(set, fd)
	}
}

// check compares every epoll instance of the machine with the scan.
func (m *diffMachine) check(t *testing.T, rng *rand.Rand, where string) {
	t.Helper()
	evs := make([]Event, 1024)
	for epfd, set := range m.interest {
		want := m.ref(set)
		sortEvents(want)
		var got []Event
		if m.oneAtATime && rng.Intn(4) == 0 {
			// Truncated waits: each reports the oldest ready entry and
			// sends it to the back, so as many calls as there are ready
			// descriptors report each exactly once.
			for range want {
				n, errno := m.api.EpollWait(epfd, evs[:1])
				if errno != hostos.OK || n != 1 {
					t.Fatalf("%s: %s ep %d: one-slot EpollWait = %d, %v with %d ready", where, m.name, epfd, n, errno, len(want))
				}
				got = append(got, evs[0])
			}
		} else {
			n, errno := m.api.EpollWait(epfd, evs)
			if errno != hostos.OK {
				t.Fatalf("%s: %s ep %d: EpollWait: %v", where, m.name, epfd, errno)
			}
			got = slices.Clone(evs[:n])
		}
		sortEvents(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s ep %d:\n EpollWait %v\n scan      %v", where, m.name, epfd, got, want)
		}
	}
}

// diffRig is two machines on one cable that can be cut.
type diffRig struct {
	clk  *sim.VClock
	m    [2]*diffMachine
	cut  bool
	heal int // step at which the cable heals
}

// newDiffRig builds machine A as a single stack and machine B as a
// single stack or, with shardsB > 1, a ShardedStack. Small socket
// buffers make a full send buffer — and the ACK that frees it — routine.
func newDiffRig(t *testing.T, shardsB int) *diffRig {
	t.Helper()
	r := &diffRig{clk: sim.NewVClock()}
	tune := TCPTuning{SndBufBytes: 4096, RcvBufBytes: 4096}
	ipA, ipB := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)

	stkA, cardA := buildMachine(t, r.clk, "0000:03:00", 1, ipA, false)
	stkA.SetTCPTuning(tune)
	r.m[0] = &diffMachine{name: "A", api: stkA, stacks: []*Stack{stkA}, ip: ipA, ref: refStack(stkA), oneAtATime: true}

	var cardB *nic.Card
	if shardsB > 1 {
		var ss *ShardedStack
		ss, cardB = buildShardedMachine(t, r.clk, "0000:04:00", 2, ipB, shardsB)
		for _, s := range ss.Shards() {
			s.SetTCPTuning(tune)
		}
		api := ss.API()
		r.m[1] = &diffMachine{name: "B", api: api, stacks: ss.shards, ip: ipB, ref: refSharded(api)}
	} else {
		var stkB *Stack
		stkB, cardB = buildMachine(t, r.clk, "0000:04:00", 2, ipB, false)
		stkB.SetTCPTuning(tune)
		r.m[1] = &diffMachine{name: "B", api: stkB, stacks: []*Stack{stkB}, ip: ipB, ref: refStack(stkB), oneAtATime: true}
	}
	cut := &wireRule{when: func(*wireFrame) bool { return r.cut }, drop: true}
	(&scriptWire{rules: []*wireRule{cut}}).attach(r.clk, cardA.Port(0), cardB.Port(0))
	for _, m := range r.m {
		m.interest = map[int]map[int]uint32{m.api.EpollCreate(): {}}
	}
	return r
}

func (r *diffRig) tick(n int) {
	for i := 0; i < n; i++ {
		r.m[0].poll()
		r.m[1].poll()
		r.clk.Advance(5000)
	}
}

// step performs one random operation and describes it.
func (r *diffRig) step(rng *rand.Rand, step int) string {
	if r.cut && step >= r.heal {
		r.cut = false
	}
	mi := rng.Intn(2)
	m, peer := r.m[mi], r.m[1-mi]
	pick := func(xs []int) int {
		if len(xs) == 0 {
			return -1 // EBADF on every call: exercised too
		}
		return xs[rng.Intn(len(xs))]
	}
	pickEp := func() int {
		eps := make([]int, 0, len(m.interest))
		for epfd := range m.interest {
			eps = append(eps, epfd)
		}
		slices.Sort(eps)
		return eps[rng.Intn(len(eps))]
	}
	masks := [...]uint32{0, EPOLLIN, EPOLLOUT, EPOLLIN | EPOLLOUT}
	buf := make([]byte, 1+rng.Intn(6000))

	switch op := rng.Intn(100); {
	case op < 8: // a new stream socket, usually registered before it is used
		fd, errno := m.api.Socket(SockStream)
		if errno != hostos.OK {
			return fmt.Sprintf("%s socket: %v", m.name, errno)
		}
		m.open = append(m.open, fd)
		return fmt.Sprintf("%s socket = %d", m.name, fd)
	case op < 12: // listen on a fresh port
		fd, port := pick(m.open), uint16(5000+len(m.lports))
		errno := m.api.Bind(fd, IPv4Addr{}, port)
		if errno == hostos.OK {
			errno = m.api.Listen(fd, 1+rng.Intn(4))
			m.lports = append(m.lports, port)
		}
		return fmt.Sprintf("%s listen(%d, :%d): %v", m.name, fd, port, errno)
	case op < 24: // connect to a port the peer listens, listened or never listened on
		fd, port := pick(m.open), uint16(5000+rng.Intn(len(peer.lports)+1))
		errno := m.api.Connect(fd, peer.ip, port)
		return fmt.Sprintf("%s connect(%d, :%d): %v", m.name, fd, port, errno)
	case op < 34:
		lfd := pick(m.open)
		fd, _, _, errno := m.api.Accept(lfd)
		if errno == hostos.OK {
			m.open = append(m.open, fd)
		}
		return fmt.Sprintf("%s accept(%d) = %d, %v", m.name, lfd, fd, errno)
	case op < 46:
		fd := pick(m.open)
		n, errno := m.api.Write(fd, buf)
		return fmt.Sprintf("%s write(%d, %d) = %d, %v", m.name, fd, len(buf), n, errno)
	case op < 56:
		fd := pick(m.open)
		n, errno := m.api.Read(fd, buf)
		return fmt.Sprintf("%s read(%d, %d) = %d, %v", m.name, fd, len(buf), n, errno)
	case op < 63:
		fd := pick(m.open)
		errno := m.api.Close(fd)
		if errno == hostos.OK {
			m.forget(fd)
		}
		return fmt.Sprintf("%s close(%d): %v", m.name, fd, errno)
	case op < 78: // epoll_ctl, any op on any descriptor with any mask
		epfd, fd := pickEp(), pick(m.open)
		ctl := [...]int{EpollCtlAdd, EpollCtlAdd, EpollCtlMod, EpollCtlDel}[rng.Intn(4)]
		mask := masks[rng.Intn(len(masks))]
		errno := m.api.EpollCtl(epfd, ctl, fd, mask)
		if errno == hostos.OK {
			if ctl == EpollCtlDel {
				delete(m.interest[epfd], fd)
			} else {
				m.interest[epfd][fd] = mask
			}
		}
		return fmt.Sprintf("%s epoll_ctl(%d, op %d, %d, %#x): %v", m.name, epfd, ctl, fd, mask, errno)
	case op < 80: // a second (third) instance over the same descriptors, or one fewer
		if len(m.interest) < 3 && rng.Intn(2) == 0 {
			epfd := m.api.EpollCreate()
			m.interest[epfd] = map[int]uint32{}
			return fmt.Sprintf("%s epoll_create = %d", m.name, epfd)
		}
		if len(m.interest) > 1 {
			epfd := pickEp()
			errno := m.api.Close(epfd)
			delete(m.interest, epfd)
			return fmt.Sprintf("%s close(epoll %d): %v", m.name, epfd, errno)
		}
		return "nop"
	case op < 84: // datagram socket, bound
		fd, errno := m.api.Socket(SockDgram)
		if errno != hostos.OK {
			return fmt.Sprintf("%s socket(dgram): %v", m.name, errno)
		}
		m.open = append(m.open, fd)
		if rng.Intn(3) > 0 {
			port := uint16(7000 + len(m.uports))
			errno = m.api.Bind(fd, IPv4Addr{}, port)
			m.uports = append(m.uports, port)
		}
		return fmt.Sprintf("%s dgram socket = %d: %v", m.name, fd, errno)
	case op < 89:
		fd, port := pick(m.open), uint16(7000+rng.Intn(len(peer.uports)+1))
		n, errno := m.api.SendTo(fd, buf[:min(len(buf), 512)], peer.ip, port)
		return fmt.Sprintf("%s sendto(%d, :%d) = %d, %v", m.name, fd, port, n, errno)
	case op < 92:
		fd := pick(m.open)
		n, _, _, errno := m.api.RecvFrom(fd, buf)
		return fmt.Sprintf("%s recvfrom(%d) = %d, %v", m.name, fd, n, errno)
	case op < 94: // cut the cable for a while: SYNs time out, data stalls
		r.cut, r.heal = true, step+20+rng.Intn(60)
		return "cable cut"
	case op < 97: // leap: RTOs, SYN give-ups, TIME_WAIT expiry
		r.clk.Advance(int64(1e6) << uint(rng.Intn(11)))
		r.tick(4)
		return "leap"
	case op < 98:
		if m.stacks[0].Down() {
			return "nop" // Crash on a crashed stack changes nothing
		}
		for _, s := range m.stacks {
			s.Crash()
		}
		for _, set := range m.interest {
			clear(set) // Crash drops every registration, the instances stay
		}
		return m.name + " crash"
	default:
		for _, s := range m.stacks {
			s.Restart()
		}
		return m.name + " restart"
	}
}

func runEpollDifferential(t *testing.T, shardsB int, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	r := newDiffRig(t, shardsB)
	for step := 0; step < steps; step++ {
		what := fmt.Sprintf("seed %d step %d (%s)", seed, step, r.step(rng, step))
		r.m[0].check(t, rng, what)
		r.m[1].check(t, rng, what)
		// Deliveries: checked tick by tick, so a wake missed on the
		// input path is caught at the segment that needed it.
		for i := rng.Intn(6); i > 0; i-- {
			r.tick(1 + rng.Intn(8))
			r.m[0].check(t, rng, what+" +ticks")
			r.m[1].check(t, rng, what+" +ticks")
		}
	}
}

// TestEpollMatchesInterestScan: two single stacks.
func TestEpollMatchesInterestScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runEpollDifferential(t, 1, seed, 2500)
	}
}

// TestEpollMatchesInterestScanSharded: machine B's listeners and
// datagram sockets are cloned on every shard, its connections pinned.
func TestEpollMatchesInterestScanSharded(t *testing.T) {
	for seed := int64(11); seed <= 14; seed++ {
		runEpollDifferential(t, 2, seed, 2500)
	}
}

// epollEvents is EpollWait into a fresh buffer.
func epollEvents(t *testing.T, s *Stack, epfd, room int) []Event {
	t.Helper()
	evs := make([]Event, room)
	n, errno := s.EpollWait(epfd, evs)
	if errno != hostos.OK {
		t.Fatalf("EpollWait: %v", errno)
	}
	return evs[:n]
}

// TestEpollOutReturnsWhenAckFreesSendBuffer: EPOLLOUT drops when the
// send buffer fills and comes back with the ACK that frees space — the
// wake at the end of tcpConn.input, on a registration no state change
// touches.
func TestEpollOutReturnsWhenAckFreesSendBuffer(t *testing.T) {
	e := newEnv(t, false)
	tune := TCPTuning{SndBufBytes: 4096, RcvBufBytes: 4096}
	e.stkA.SetTCPTuning(tune)
	e.stkB.SetTCPTuning(tune)
	cfd, afd := e.connectPair(5001)
	ep := e.stkA.EpollCreate()
	if errno := e.stkA.EpollCtl(ep, EpollCtlAdd, cfd, EPOLLOUT); errno != hostos.OK {
		t.Fatal(errno)
	}
	if evs := epollEvents(t, e.stkA, ep, 4); len(evs) != 1 || evs[0].Events != EPOLLOUT {
		t.Fatalf("fresh connection: %v, want EPOLLOUT", evs)
	}
	// Fill B's receive buffer, then A's send buffer behind it.
	chunk := make([]byte, 1024)
	e.pumpUntil(4000, "send buffer full", func() bool {
		_, errno := e.stkA.Write(cfd, chunk)
		return errno == hostos.EAGAIN
	})
	if evs := epollEvents(t, e.stkA, ep, 4); len(evs) != 0 {
		t.Fatalf("full send buffer still reported: %v", evs)
	}
	// B drains; the ACKs of the data that follows free A's buffer.
	e.pumpUntil(4000, "EPOLLOUT back", func() bool {
		e.stkB.Read(afd, chunk)
		evs := epollEvents(t, e.stkA, ep, 4)
		return len(evs) == 1 && evs[0] == Event{FD: cfd, Events: EPOLLOUT}
	})
}

// TestEpollTruncationKeepsWakeOrder: with more ready than the buffer
// holds, Wait reports in wake order, the unreported stay queued and lead
// the next call, and nothing is reported twice before everything was
// reported once.
func TestEpollTruncationKeepsWakeOrder(t *testing.T) {
	e := newEnv(t, false)
	s := e.stkB
	ep := s.EpollCreate()
	var fds []int
	for i := 0; i < 5; i++ {
		fd, _ := s.Socket(SockDgram)
		if errno := s.Bind(fd, IPv4Addr{}, uint16(7000+i)); errno != hostos.OK {
			t.Fatal(errno)
		}
		s.EpollCtl(ep, EpollCtlAdd, fd, EPOLLOUT) // bound datagram sockets are always writable
		fds = append(fds, fd)
	}
	order := func(evs []Event) []int {
		var out []int
		for _, ev := range evs {
			out = append(out, ev.FD)
		}
		return out
	}
	if got := order(epollEvents(t, s, ep, 2)); !slices.Equal(got, fds[:2]) {
		t.Fatalf("first truncated wait: %v, want %v", got, fds[:2])
	}
	if got := order(epollEvents(t, s, ep, 2)); !slices.Equal(got, fds[2:4]) {
		t.Fatalf("second truncated wait: %v, want %v", got, fds[2:4])
	}
	want := []int{fds[4], fds[0], fds[1], fds[2], fds[3]}
	if got := order(epollEvents(t, s, ep, 8)); !slices.Equal(got, want) {
		t.Fatalf("full wait after two truncated: %v, want %v", got, want)
	}
	if got := order(epollEvents(t, s, ep, 0)); len(got) != 0 {
		t.Fatalf("zero-length buffer reported %v", got)
	}
}

// TestShardedEpollWaitTakesTurns: with one readable connection on each
// of two shards, two one-slot waits report both — a call that runs out
// of room hands the next one to the first shard it could not ask, so
// shard 0's level-triggered entry cannot keep the buffer to itself.
func TestShardedEpollWaitTakesTurns(t *testing.T) {
	clk := sim.NewVClock()
	ipB := IP4(10, 0, 0, 2)
	stkA, cardA := buildMachine(t, clk, "0000:03:00", 1, IP4(10, 0, 0, 1), false)
	ss, cardB := buildShardedMachine(t, clk, "0000:04:00", 2, ipB, 2)
	nic.Connect(cardA.Port(0), cardB.Port(0))
	b := ss.API()
	tick := func() {
		stkA.PollOnce()
		for _, s := range ss.shards {
			s.PollOnce()
		}
		clk.Advance(5000)
	}
	lfd, _ := b.Socket(SockStream)
	if errno := b.Bind(lfd, IPv4Addr{}, 5001); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := b.Listen(lfd, 16); errno != hostos.OK {
		t.Fatal(errno)
	}
	// Connect until a connection has landed on each shard, and send one
	// byte down the first one found on each.
	ep := b.EpollCreate()
	var onShard [2]int
	for sport := uint16(40000); onShard[0] == 0 || onShard[1] == 0; sport++ {
		if sport == 40064 {
			t.Fatalf("64 connections never covered both shards: %v", onShard)
		}
		cfd, _ := stkA.Socket(SockStream)
		stkA.Bind(cfd, IPv4Addr{}, sport)
		if errno := stkA.Connect(cfd, ipB, 5001); errno != hostos.EINPROGRESS {
			t.Fatalf("connect: %v", errno)
		}
		afd := 0
		for i := 0; afd == 0; i++ {
			if i == 4000 {
				t.Fatal("connection never accepted")
			}
			tick()
			if fd, _, _, errno := b.Accept(lfd); errno == hostos.OK {
				afd = fd
			}
		}
		if sh := b.fds.get(afd).shard; onShard[sh] == 0 {
			onShard[sh] = afd
			if n, errno := stkA.Write(cfd, []byte{1}); n != 1 || errno != hostos.OK {
				t.Fatalf("write: %d, %v", n, errno)
			}
			if errno := b.EpollCtl(ep, EpollCtlAdd, afd, EPOLLIN); errno != hostos.OK {
				t.Fatal(errno)
			}
		}
	}
	for i := 0; i < 200; i++ {
		tick()
	}
	var got []int
	evs := make([]Event, 1)
	for range 2 {
		if n, errno := b.EpollWait(ep, evs); n != 1 || errno != hostos.OK {
			t.Fatalf("one-slot EpollWait = %d, %v", n, errno)
		}
		got = append(got, evs[0].FD)
	}
	slices.Sort(got)
	want := []int{min(onShard[0], onShard[1]), max(onShard[0], onShard[1])}
	if !slices.Equal(got, want) {
		t.Fatalf("two one-slot waits reported %v, want both readable descriptors %v", got, want)
	}
}

// TestEpollClose: closing an epoll descriptor frees the instance and its
// registrations; the sockets live on and can join another instance.
func TestEpollClose(t *testing.T) {
	e := newEnv(t, false)
	s := e.stkB
	fd, _ := s.Socket(SockDgram)
	s.Bind(fd, IPv4Addr{}, 7000)
	ep := s.EpollCreate()
	if errno := s.EpollCtl(ep, EpollCtlAdd, fd, EPOLLOUT); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := s.Close(ep); errno != hostos.OK {
		t.Fatalf("Close(epfd): %v", errno)
	}
	if errno := s.EpollCtl(ep, EpollCtlAdd, fd, EPOLLOUT); errno != hostos.EBADF {
		t.Fatalf("EpollCtl on a closed instance: %v, want EBADF", errno)
	}
	if _, errno := s.EpollWait(ep, make([]Event, 4)); errno != hostos.EBADF {
		t.Fatalf("EpollWait on a closed instance: %v, want EBADF", errno)
	}
	if errno := s.Close(ep); errno != hostos.EBADF {
		t.Fatalf("second Close(epfd): %v, want EBADF", errno)
	}
	if sk := s.sockOf(fd); sk == nil || sk.regs != nil {
		t.Fatalf("socket after its instance closed: %+v, want it open and unregistered", sk)
	}
	ep2 := s.EpollCreate()
	if errno := s.EpollCtl(ep2, EpollCtlAdd, fd, EPOLLOUT); errno != hostos.OK {
		t.Fatal(errno)
	}
	if evs := epollEvents(t, s, ep2, 4); len(evs) != 1 || evs[0].FD != fd {
		t.Fatalf("socket on a second instance: %v", evs)
	}
}

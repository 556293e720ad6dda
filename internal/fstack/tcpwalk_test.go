package fstack

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/hostos"
)

// TestTCPWalksFollowTheTable is a model-based test of the state table.
// On each seed two stacks, each listening and each tuned or not, run a
// seeded sequence of operations: connect either way, write, read (an
// application closes on EOF), close either end (with data queued or
// not), close both ends of one connection at once, and crash and
// restart one of the stacks. The wire between them drops and delays
// frames from a seeded source. Every state change either stack records
// must be one of the table's close edges, a handshake edge, or a move
// into CLOSED. Once both applications have closed everything and the
// run has drained, every connection's walk has ended in CLOSED and both
// tuple tables are empty: none is left in FIN_WAIT_2, not even one whose
// peer's stack crashed after acking its FIN, because 2MSL of silence
// drops it (FreeBSD's tcp_finwait2_timeout). A failing seed prints its
// operation log, and the seeds together must walk every edge but the
// aborts and must drop at least one such FIN_WAIT_2 connection.
func TestTCPWalksFollowTheTable(t *testing.T) {
	// The edges the seeds must walk: the table's close edges and the
	// handshake's.
	var walked, legal, seen stateEdgeSet
	for from, st := range tcpStates {
		for _, to := range st.next {
			if to != tcpState(from) {
				walked[from][to] = true
			}
		}
	}
	for _, e := range [][2]tcpState{
		{tcpClosed, tcpSynSent}, {tcpSynSent, tcpEstablished},
		{tcpClosed, tcpSynReceived}, {tcpSynReceived, tcpEstablished},
	} {
		walked[e[0]][e[1]] = true
	}
	// The legal ones add an abort's, from any state into CLOSED.
	legal = walked
	for from := range legal {
		legal[from][tcpClosed] = from != int(tcpClosed)
	}
	var finWait2Drops uint64
	for seed := int64(1); seed <= 24; seed++ {
		finWait2Drops += walkOneSeed(t, seed, &legal, &seen)
	}
	if finWait2Drops == 0 {
		t.Error("no seed stranded a FIN_WAIT_2 connection for its timer to drop")
	}
	for from := range walked {
		for to := range walked[from] {
			if walked[from][to] && !seen[from][to] {
				t.Errorf("no seed walked %v -> %v", tcpState(from), tcpState(to))
			}
		}
	}
}

// stateEdgeSet is a set of edges, indexed by from and to state.
type stateEdgeSet [len(tcpStates)][len(tcpStates)]bool

// walkSide is one stack of a walk and its application's descriptors.
type walkSide struct {
	name  string
	stk   *Stack
	peer  IPv4Addr
	lfd   int
	fds   []int
	edges func() [][2]tcpState
}

const walkPort = 7000

func (w *walkSide) listen(t *testing.T) {
	t.Helper()
	lfd, errno := w.stk.Socket(SockStream)
	if errno == hostos.OK {
		errno = w.stk.Bind(lfd, IPv4Addr{}, walkPort)
	}
	if errno == hostos.OK {
		errno = w.stk.Listen(lfd, 16)
	}
	if errno != hostos.OK {
		t.Fatalf("%s: listen: %v", w.name, errno)
	}
	w.lfd = lfd
}

// drop forgets fd after the application closed it.
func (w *walkSide) drop(fd int) {
	w.fds = slices.DeleteFunc(w.fds, func(f int) bool { return f == fd })
}

// walkOneSeed runs one seed and returns how many FIN_WAIT_2 connections
// the two stacks dropped.
func walkOneSeed(t *testing.T, seed int64, legal, seen *stateEdgeSet) uint64 {
	ops := rand.New(rand.NewSource(seed))
	wire := rand.New(rand.NewSource(^seed))
	var p float64 // one draw per frame: 2 % are lost, 5 % delayed up to 400 µs
	e := newRig(t, false, (&scriptWire{rules: []*wireRule{
		{drop: true, when: func(*wireFrame) bool { p = wire.Float64(); return p < 0.02 }},
		{when: func(*wireFrame) bool { return p < 0.07 }, delay: func(*wireFrame) int64 { return wire.Int63n(400e3) }},
	}}).attach)
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%9.3f ms  ", float64(e.clk.Now())/1e6)+fmt.Sprintf(format, args...))
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\noperation log:\n%s", seed, fmt.Sprintf(format, args...), strings.Join(log, "\n"))
	}

	sides := [2]*walkSide{
		{name: "A", stk: e.stkA, peer: IP4(10, 0, 0, 2)},
		{name: "B", stk: e.stkB, peer: IP4(10, 0, 0, 1)},
	}
	for _, w := range sides {
		var tuning TCPTuning
		if ops.Intn(2) == 1 {
			tuning = TCPTuning{SACK: true, WindowScale: 7}
		}
		if err := w.stk.SetTCPTuning(tuning); err != nil {
			t.Fatal(err)
		}
		logf("%s tuned %+v", w.name, tuning)
		w.edges = stateEdges(w.stk)
		w.listen(t)
	}

	// poll steps both stacks from deadline to deadline until end.
	poll := func(end int64) {
		for {
			e.stkA.PollOnce()
			e.stkB.PollOnce()
			now := e.clk.Now()
			if now >= end {
				return
			}
			next := min(e.stkA.NextDeadline(now), e.stkB.NextDeadline(now), end)
			e.clk.Set(max(next, now+5000))
		}
	}
	accept := func() {
		for _, w := range sides {
			for {
				fd, _, port, errno := w.stk.Accept(w.lfd)
				if errno != hostos.OK {
					break
				}
				w.fds = append(w.fds, fd)
				logf("%s accept fd %d from port %d", w.name, fd, port)
			}
		}
	}
	closeFd := func(w *walkSide, fd int, why string) {
		logf("%s close fd %d (%s) -> %v", w.name, fd, why, w.stk.Close(fd))
		w.drop(fd)
	}
	// pairOf finds the descriptor on the other side holding the same
	// connection as fd on w.
	pairOf := func(w, o *walkSide, fd int) (int, bool) {
		sk := w.stk.sockOf(fd)
		if sk == nil || sk.conn == nil {
			return 0, false
		}
		for _, ofd := range o.fds {
			if osk := o.stk.sockOf(ofd); osk != nil && osk.conn != nil &&
				osk.conn.tuple.local == sk.conn.tuple.remote && osk.conn.tuple.remote == sk.conn.tuple.local {
				return ofd, true
			}
		}
		return 0, false
	}

	buf := make([]byte, 64<<10)
	crashed := false
	for range 24 {
		wi := ops.Intn(2)
		w, o := sides[wi], sides[1-wi]
		pick := func() (int, bool) {
			if len(w.fds) == 0 {
				return 0, false
			}
			return w.fds[ops.Intn(len(w.fds))], true
		}
		switch op := ops.Intn(10); {
		case op < 2:
			fd, errno := w.stk.Socket(SockStream)
			if errno == hostos.OK {
				errno = w.stk.Connect(fd, w.peer, walkPort)
				w.fds = append(w.fds, fd)
			}
			logf("%s connect fd %d -> %v", w.name, fd, errno)
		case op < 4:
			if fd, ok := pick(); ok {
				n, errno := w.stk.Write(fd, buf[:1+ops.Intn(len(buf))])
				logf("%s write fd %d -> %d, %v", w.name, fd, n, errno)
			}
		case op < 6:
			if fd, ok := pick(); ok {
				n, errno := w.stk.Read(fd, buf)
				logf("%s read fd %d -> %d, %v", w.name, fd, n, errno)
				if n == 0 && errno == hostos.OK {
					closeFd(w, fd, "EOF")
				}
			}
		case op < 8:
			if fd, ok := pick(); ok {
				closeFd(w, fd, "")
			}
		case op < 9:
			if fd, ok := pick(); ok {
				if ofd, ok := pairOf(w, o, fd); ok {
					closeFd(w, fd, "both ends")
					closeFd(o, ofd, "both ends")
				}
			}
		case !crashed:
			crashed = true
			w.stk.Crash()
			logf("%s crash", w.name)
			// At least 1 ms down: every frame the stack sent before the
			// crash has reached the survivor (the wire delays 0.4 ms at
			// most) by the restart.
			poll(e.clk.Now() + 1e6 + ops.Int63n(4e6))
			w.stk.Restart()
			logf("%s restart", w.name)
			// The application closes its stale descriptors and listens
			// again.
			for len(w.fds) > 0 {
				closeFd(w, w.fds[0], "stale")
			}
			w.stk.Close(w.lfd)
			w.listen(t)
		}
		poll(e.clk.Now() + ops.Int63n(3e6))
		accept()
	}

	for _, w := range sides {
		for len(w.fds) > 0 {
			closeFd(w, w.fds[0], "end of run")
		}
		w.stk.Close(w.lfd)
	}
	for {
		e.stkA.PollOnce()
		e.stkB.PollOnce()
		now := e.clk.Now()
		next := min(e.stkA.NextDeadline(now), e.stkB.NextDeadline(now))
		if next == math.MaxInt64 || now > 600e9 {
			break
		}
		e.clk.Set(max(next, now+5000))
	}
	var left []string
	for _, w := range sides {
		for c := range w.stk.conns.all() {
			left = append(left, fmt.Sprintf("%s %v %d->%d", w.name, c.state, c.tuple.local.Port, c.tuple.remote.Port))
		}
	}

	for _, w := range sides {
		edges := w.edges()
		if edges == nil {
			fail("%s: the state recorder overflowed", w.name)
		}
		opened, closed := 0, 0
		for _, ed := range edges {
			if !legal[ed[0]][ed[1]] {
				fail("%s: illegal edge %v -> %v", w.name, ed[0], ed[1])
			}
			seen[ed[0]][ed[1]] = true
			if ed[0] == tcpClosed {
				opened++
			}
			if ed[1] == tcpClosed {
				closed++
			}
		}
		if len(left) > 0 {
			fail("the run drained with connections left: %s", strings.Join(left, ", "))
		}
		// Every walk leaves CLOSED once, so it ended there iff it
		// entered CLOSED once.
		if opened != closed || opened == 0 {
			fail("%s: %d walks left CLOSED, %d ended there", w.name, opened, closed)
		}
	}
	drops := e.stkA.Stats().FinWait2Drops + e.stkB.Stats().FinWait2Drops
	if drops > 0 {
		t.Logf("seed %d: %d FIN_WAIT_2 connection(s) dropped after 2MSL of silence", seed, drops)
	}
	return drops
}

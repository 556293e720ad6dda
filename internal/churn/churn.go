// Package churn is the connection-storm workload behind Scenario 8:
// a client that holds a large population of idle connections and then
// drives rate-paced short flows at a server, and the server that
// accepts them. Both sides are non-blocking Step state machines in the
// iperf mold, so the same code runs against a plain stack, the gated
// API, or the sharded API, under the event-driven virtual clock.
//
// The client manages its own source ports (explicit Bind before
// Connect) instead of leaning on the ephemeral allocator: connection i
// takes sport sportBase+i%sportSpan toward dport base+(i/sportSpan),
// which keeps every concurrently-open tuple distinct without any
// coordination, and — once i wraps the sport space — deliberately
// re-offers tuples whose previous incarnation may still sit in
// TIME_WAIT, exercising the stack's 2MSL-reuse path. The client closes
// first, so TIME_WAIT accumulates on the client stack, exactly as it
// does on real load generators.
package churn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/stats"
)

const (
	// sportBase/sportSpan is the client's managed source-port window.
	sportBase = uint16(1024)
	sportSpan = 64000
	// maxInflight bounds concurrent client handshakes, so the accept
	// queues see a storm, not an avalanche.
	maxInflight = 256
	// payloadBytes is one short flow's request size.
	payloadBytes = 64
	// evBuf is sized past any reachable ready-set so one EpollWait
	// reports all of it: a truncated wait leaves the rest queued for the
	// next call, which would spread an instant's events over app steps
	// and move the virtual results the goldens pin.
	evBuf = 4096
)

// connAddr maps flow index i to its managed (sport, dport-offset)
// pair.
func connAddr(i int) (sport uint16, dportOff int) {
	return sportBase + uint16(i%sportSpan), i / sportSpan
}

// --- server ---

// Server accepts the storm. Connections arriving on the preload ports
// [PreloadPort, PreloadPort+Ports) are parked — accepted, then held
// open untouched, the idle-population half of the scenario.
// Connections on the churn ports [ChurnPort, ChurnPort+Ports) are
// served: read to EOF, then closed.
type Server struct {
	ListenIP    fstack.IPv4Addr
	PreloadPort uint16
	ChurnPort   uint16
	Ports       int
	Backlog     int

	started  bool
	epfd     int
	preload  map[int]bool // listener fds for parked conns
	churn    map[int]bool // listener fds for served conns
	buf      []byte
	evs      []fstack.Event
	parked   int
	served   uint64
	failure  hostos.Errno
	wantStep bool
}

// NewServer prepares the accept side: ports listeners parked, ports
// listeners served, each with the given backlog.
func NewServer(ip fstack.IPv4Addr, preloadPort, churnPort uint16, ports, backlog int) *Server {
	return &Server{
		ListenIP: ip, PreloadPort: preloadPort, ChurnPort: churnPort,
		Ports: ports, Backlog: backlog,
		preload: make(map[int]bool), churn: make(map[int]bool),
		buf: make([]byte, 4096), evs: make([]fstack.Event, evBuf),
	}
}

// Parked reports how many idle connections the server holds.
func (s *Server) Parked() int { return s.parked }

// Served reports how many short flows ran to completion (EOF seen,
// connection closed).
func (s *Server) Served() uint64 { return s.served }

// Err returns the sticky failure, if any.
func (s *Server) Err() hostos.Errno { return s.failure }

// NextDeadline: past its setup step the server reacts to stack events,
// with one kind of work its own Step queues for the next one: ready
// descriptors the last EpollWait did not report — a short flow's bytes
// (and FIN) can arrive in the same poll as its handshake's last ACK, so
// a connection accepted in this Step may be readable already, and a
// wait that filled the buffer may have left others behind.
func (s *Server) NextDeadline(now int64) int64 {
	if s.wantStep {
		return now
	}
	return math.MaxInt64
}

func (s *Server) fail(errno hostos.Errno) { s.failure = errno }

// Step advances the server; call once per loop iteration.
func (s *Server) Step(api fstack.API, now int64) {
	if s.failure != hostos.OK {
		return
	}
	if !s.started {
		s.started = true
		s.wantStep = false
		s.epfd = api.EpollCreate()
		listen := func(set map[int]bool, base uint16) {
			for p := 0; p < s.Ports; p++ {
				fd, errno := api.Socket(fstack.SockStream)
				if errno != hostos.OK {
					s.fail(errno)
					return
				}
				if errno := api.Bind(fd, s.ListenIP, base+uint16(p)); errno != hostos.OK {
					s.fail(errno)
					return
				}
				if errno := api.Listen(fd, s.Backlog); errno != hostos.OK {
					s.fail(errno)
					return
				}
				if errno := api.EpollCtl(s.epfd, fstack.EpollCtlAdd, fd, fstack.EPOLLIN); errno != hostos.OK {
					s.fail(errno)
					return
				}
				set[fd] = true
			}
		}
		listen(s.preload, s.PreloadPort)
		if s.failure == hostos.OK {
			listen(s.churn, s.ChurnPort)
		}
		return
	}
	n, errno := api.EpollWait(s.epfd, s.evs)
	if errno != hostos.OK {
		s.fail(errno)
		return
	}
	s.wantStep = n == len(s.evs)
	// EpollWait reports in wake order; the goldens pin descriptor order.
	slices.SortFunc(s.evs[:n], func(a, b fstack.Event) int { return a.FD - b.FD })
	for _, ev := range s.evs[:n] {
		switch {
		case s.preload[ev.FD]:
			for {
				_, _, _, errno := api.Accept(ev.FD)
				if errno == hostos.EAGAIN {
					break
				}
				if errno != hostos.OK {
					s.fail(errno)
					return
				}
				// Parked: held open, never read, never watched — an idle
				// connection must cost its conn state and nothing else.
				s.parked++
			}
		case s.churn[ev.FD]:
			for {
				cfd, _, _, errno := api.Accept(ev.FD)
				if errno == hostos.EAGAIN {
					break
				}
				if errno != hostos.OK {
					s.fail(errno)
					return
				}
				if errno := api.EpollCtl(s.epfd, fstack.EpollCtlAdd, cfd, fstack.EPOLLIN); errno != hostos.OK {
					s.fail(errno)
					return
				}
				s.wantStep = true
			}
		default:
			if ev.Events&fstack.EPOLLIN == 0 && ev.Events&(fstack.EPOLLERR|fstack.EPOLLHUP) == 0 {
				continue
			}
			for {
				n, errno := api.Read(ev.FD, s.buf)
				if errno == hostos.EAGAIN {
					break
				}
				if errno != hostos.OK {
					// The storm's short flows may RST under overload;
					// drop the conn, not the run.
					api.Close(ev.FD)
					break
				}
				if n == 0 { // EOF: flow complete
					api.Close(ev.FD)
					s.served++
					break
				}
			}
		}
	}
}

// --- client ---

type clientState int

const (
	clientInit clientState = iota
	clientPreloading
	clientHolding
	clientChurning
	clientDone
)

// flight is one in-progress handshake.
type flight struct {
	t0      int64 // Connect() instant
	preload bool
}

// Client drives the storm: establish Preload idle connections and hold
// them, then — once StartChurn is called — open short flows at Rate
// per second for DurationNS, each flow writing payloadBytes and
// closing.
type Client struct {
	ServerIP    fstack.IPv4Addr
	PreloadPort uint16
	ChurnPort   uint16
	Ports       int
	Preload     int
	Rate        float64
	DurationNS  int64
	// Hist records churn-flow connect latency (Connect to writable),
	// nanoseconds.
	Hist stats.Histogram

	state      clientState
	epfd       int
	inflight   map[int]flight
	evs        []fstack.Event
	payload    []byte
	opened     int // preload conns opened
	held       int // preload conns established
	churnOpen  int // churn flows opened
	completed  uint64
	deferred   uint64 // pace slots missed because maxInflight was hit
	churnStart int64
	churnEnd   int64
	failure    hostos.Errno
	wantStep   bool
}

// NewClient prepares the storm driver.
func NewClient(ip fstack.IPv4Addr, preloadPort, churnPort uint16, ports, preload int, rate float64, durationNS int64) (*Client, error) {
	if preload > ports*sportSpan {
		return nil, fmt.Errorf("churn: %d preload conns need more than %d ports", preload, ports)
	}
	pay := make([]byte, payloadBytes)
	for i := range pay {
		pay[i] = byte(i)
	}
	return &Client{
		ServerIP: ip, PreloadPort: preloadPort, ChurnPort: churnPort,
		Ports: ports, Preload: preload, Rate: rate, DurationNS: durationNS,
		inflight: make(map[int]flight),
		evs:      make([]fstack.Event, evBuf),
		payload:  pay,
	}, nil
}

// PreloadDone reports that every idle connection is established: the
// moment the driver measures the idle-population cost and calls
// StartChurn.
func (c *Client) PreloadDone() bool { return c.state == clientHolding }

// StartChurn begins the rate-paced short-flow phase.
func (c *Client) StartChurn(now int64) {
	c.churnStart = now
	c.state = clientChurning
	c.wantStep = true
}

// Done reports completion of the churn phase.
func (c *Client) Done() bool { return c.state == clientDone }

// Completed reports finished short flows (written and closed).
func (c *Client) Completed() uint64 { return c.completed }

// Deferred reports pace slots that came due while maxInflight
// handshakes were already outstanding — the open-loop load the client
// could not offer. Nonzero means the measured rate understates the
// offered rate.
func (c *Client) Deferred() uint64 { return c.deferred }

// ChurnNS returns the churn phase's virtual duration (valid once Done).
func (c *Client) ChurnNS() int64 { return c.churnEnd - c.churnStart }

// Err returns the sticky failure, if any.
func (c *Client) Err() hostos.Errno { return c.failure }

// NextDeadline: the client self-clocks on its churn pacing (and the
// phase end); everything else is reaction to stack events.
func (c *Client) NextDeadline(now int64) int64 {
	if c.wantStep {
		return now
	}
	if c.state != clientChurning {
		return math.MaxInt64
	}
	end := c.churnStart + c.DurationNS
	if now >= end {
		return math.MaxInt64 // draining: completion is event-driven
	}
	if len(c.inflight) >= maxInflight {
		return end // pacing blocked; a completion event unblocks sooner
	}
	// The next pace slot: the instant flow churnOpen+1 comes due.
	at := c.churnStart + int64(float64(c.churnOpen+1)/c.Rate*1e9)
	if at > end {
		return end
	}
	return at
}

func (c *Client) fail(errno hostos.Errno) {
	c.failure = errno
	c.state = clientDone
}

// open starts handshake i of a phase toward the given base port.
func (c *Client) open(api fstack.API, now int64, i int, base uint16, preload bool) bool {
	sport, off := connAddr(i)
	fd, errno := api.Socket(fstack.SockStream)
	if errno != hostos.OK {
		c.fail(errno)
		return false
	}
	if errno := api.Bind(fd, fstack.IPv4Addr{}, sport); errno != hostos.OK {
		c.fail(errno)
		return false
	}
	if errno := api.EpollCtl(c.epfd, fstack.EpollCtlAdd, fd, fstack.EPOLLOUT); errno != hostos.OK {
		c.fail(errno)
		return false
	}
	if errno := api.Connect(fd, c.ServerIP, base+uint16(off)); errno != hostos.EINPROGRESS && errno != hostos.OK {
		c.fail(errno)
		return false
	}
	c.inflight[fd] = flight{t0: now, preload: preload}
	return true
}

// Step advances the client; call once per loop iteration.
func (c *Client) Step(api fstack.API, now int64) {
	switch c.state {
	case clientInit:
		c.epfd = api.EpollCreate()
		c.state = clientPreloading
		c.wantStep = true

	case clientPreloading:
		c.wantStep = false
		if !c.drain(api, now) {
			return
		}
		for c.opened < c.Preload && len(c.inflight) < maxInflight {
			if !c.open(api, now, c.opened, c.PreloadPort, true) {
				return
			}
			c.opened++
		}
		if c.held == c.Preload {
			c.state = clientHolding
		}

	case clientChurning:
		c.wantStep = false
		if !c.drain(api, now) {
			return
		}
		elapsed := now - c.churnStart
		if elapsed < c.DurationNS {
			target := int(float64(elapsed) * c.Rate / 1e9)
			for c.churnOpen < target {
				if len(c.inflight) >= maxInflight {
					c.deferred += uint64(target - c.churnOpen)
					break
				}
				if !c.open(api, now, c.churnOpen, c.ChurnPort, false) {
					return
				}
				c.churnOpen++
			}
		} else if len(c.inflight) == 0 {
			c.churnEnd = now
			c.state = clientDone
		}
	}
}

// drain processes handshake completions; false means the run failed.
func (c *Client) drain(api fstack.API, now int64) bool {
	n, errno := api.EpollWait(c.epfd, c.evs)
	if errno != hostos.OK {
		c.fail(errno)
		return false
	}
	slices.SortFunc(c.evs[:n], func(a, b fstack.Event) int { return a.FD - b.FD })
	for _, ev := range c.evs[:n] {
		fl, ok := c.inflight[ev.FD]
		if !ok {
			continue
		}
		if ev.Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0 {
			c.fail(hostos.ECONNREFUSED)
			return false
		}
		if ev.Events&fstack.EPOLLOUT == 0 {
			continue
		}
		delete(c.inflight, ev.FD)
		if fl.preload {
			// Established and parked: out of the watch set, held open.
			if errno := api.EpollCtl(c.epfd, fstack.EpollCtlDel, ev.FD, 0); errno != hostos.OK {
				c.fail(errno)
				return false
			}
			c.held++
			continue
		}
		c.Hist.Record(now - fl.t0)
		if _, errno := api.Write(ev.FD, c.payload); errno != hostos.OK {
			c.fail(errno)
			return false
		}
		api.Close(ev.FD) // client closes first: TIME_WAIT lands here
		c.completed++
	}
	return true
}

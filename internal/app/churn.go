package app

import (
	"fmt"
	"math"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/stats"
)

const (
	// sportBase/sportSpan is the churn client's managed source-port
	// window.
	sportBase = uint16(1024)
	sportSpan = 64000
	// maxInflight bounds concurrent client handshakes, so the accept
	// queues see a storm, not an avalanche.
	maxInflight = 256
	// payloadBytes is one short flow's request size.
	payloadBytes = 64
)

// connAddr maps flow index i to its managed (sport, dport-offset)
// pair.
func connAddr(i int) (sport uint16, dportOff int) {
	return sportBase + uint16(i%sportSpan), i / sportSpan
}

// ChurnServer accepts the storm. Connections arriving on the preload
// ports [PreloadPort, PreloadPort+Ports) are parked — accepted, then
// held open untouched, the idle-population half of the scenario.
// Connections on the churn ports [ChurnPort, ChurnPort+Ports) are
// served: read to EOF, then closed.
type ChurnServer struct {
	kit
	ListenIP    fstack.IPv4Addr
	PreloadPort uint16
	ChurnPort   uint16
	Ports       int
	Backlog     int

	started   bool
	listeners map[int]bool // listener fd -> its connections are parked
	buf       []byte
	parked    int
	served    uint64
}

// NewChurnServer prepares the accept side: ports listeners parked,
// ports listeners served, each with the given backlog.
func NewChurnServer(ip fstack.IPv4Addr, preloadPort, churnPort uint16, ports, backlog int) *ChurnServer {
	return &ChurnServer{
		kit:      kit{evs: make([]fstack.Event, evBuf)},
		ListenIP: ip, PreloadPort: preloadPort, ChurnPort: churnPort,
		Ports: ports, Backlog: backlog,
		listeners: make(map[int]bool),
		buf:       make([]byte, 4096),
	}
}

// Served reports how many short flows ran to completion (EOF seen,
// connection closed).
func (s *ChurnServer) Served() uint64 { return s.served }

// NextDeadline: past its setup step the server reacts to stack events,
// with one kind of work its own Step queues for the next one: ready
// descriptors the last EpollWait did not report — a short flow's bytes
// (and FIN) can arrive in the same poll as its handshake's last ACK, so
// a connection accepted in this Step may be readable already, and a
// wait that filled the buffer may have left others behind.
func (s *ChurnServer) NextDeadline(now int64) int64 { return s.deadline(now, math.MaxInt64) }

// Step advances the server; call once per loop iteration.
func (s *ChurnServer) Step(api API, now int64) {
	if s.failed() {
		return
	}
	if !s.started {
		s.started = true
		s.wantStep = false
		s.epfd = api.EpollCreate()
		for _, base := range []uint16{s.PreloadPort, s.ChurnPort} {
			for p := 0; p < s.Ports; p++ {
				fd, ok := s.listen(api, fstack.SockStream, s.ListenIP, base+uint16(p), s.Backlog)
				if !ok {
					return
				}
				s.listeners[fd] = base == s.PreloadPort
			}
		}
		return
	}
	evs, _ := s.harvest(api)
	for _, ev := range evs {
		if park, listener := s.listeners[ev.FD]; listener {
			for {
				cfd, _, _, errno := api.Accept(ev.FD)
				if errno == hostos.EAGAIN {
					break
				}
				if !s.ok(errno) {
					return
				}
				if park {
					// Held open, never read, never watched — an idle
					// connection must cost its conn state and nothing else.
					s.parked++
					continue
				}
				if !s.ctl(api, fstack.EpollCtlAdd, cfd, fstack.EPOLLIN) {
					return
				}
				s.wantStep = true
			}
			continue
		}
		if ev.Events&(fstack.EPOLLIN|fstack.EPOLLERR|fstack.EPOLLHUP) == 0 {
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

type churnState int

const (
	churnInit churnState = iota
	churnPreloading
	churnHolding
	churnChurning
	churnDone
)

// flight is one in-progress handshake.
type flight struct {
	t0      int64 // Connect() instant
	preload bool
}

// ChurnClient drives the storm: establish Preload idle connections and
// hold them, then — once StartChurn is called — open short flows at
// Rate per second for DurationNS, each flow writing payloadBytes and
// closing.
type ChurnClient struct {
	kit
	ServerIP    fstack.IPv4Addr
	PreloadPort uint16
	ChurnPort   uint16
	Preload     int
	Rate        float64
	DurationNS  int64
	// Hist records churn-flow connect latency (Connect to writable),
	// nanoseconds.
	Hist stats.Histogram

	state     churnState
	inflight  map[int]flight
	payload   []byte
	opened    int // preload conns opened
	held      int // preload conns established
	churnOpen int // churn flows opened
	completed uint64
	pace      pacer
	churnEnd  int64
}

// ChurnPorts is how many listen ports a preload of conns connections
// needs: one per window of managed source ports.
func ChurnPorts(conns int) int { return (conns + sportSpan - 1) / sportSpan }

// NewChurnClient prepares the storm driver.
func NewChurnClient(ip fstack.IPv4Addr, preloadPort, churnPort uint16, ports, preload int, rate float64, durationNS int64) (*ChurnClient, error) {
	if preload > ports*sportSpan {
		return nil, fmt.Errorf("churn: %d preload conns need more than %d ports", preload, ports)
	}
	pay := make([]byte, payloadBytes)
	for i := range pay {
		pay[i] = byte(i)
	}
	return &ChurnClient{
		kit:      kit{evs: make([]fstack.Event, evBuf)},
		ServerIP: ip, PreloadPort: preloadPort, ChurnPort: churnPort,
		Preload: preload, Rate: rate, DurationNS: durationNS,
		inflight: make(map[int]flight),
		payload:  pay,
	}, nil
}

// PreloadDone reports that every idle connection is established: the
// moment the driver measures the idle-population cost and calls
// StartChurn.
func (c *ChurnClient) PreloadDone() bool { return c.state == churnHolding }

// StartChurn begins the rate-paced short-flow phase.
func (c *ChurnClient) StartChurn(now int64) {
	c.pace = pacer{rate: c.Rate, start: now, end: now + c.DurationNS}
	c.state = churnChurning
	c.wantStep = true
}

// Done reports completion of the churn phase.
func (c *ChurnClient) Done() bool { return c.state == churnDone || c.failed() }

// Completed reports finished short flows (written and closed).
func (c *ChurnClient) Completed() uint64 { return c.completed }

// Deferred reports pace slots that came due while maxInflight
// handshakes were already outstanding — the open-loop load the client
// could not offer. Nonzero means the measured rate understates the
// offered rate.
func (c *ChurnClient) Deferred() uint64 { return c.pace.deferred }

// ChurnNS returns the churn phase's virtual duration (valid once Done).
func (c *ChurnClient) ChurnNS() int64 { return c.churnEnd - c.pace.start }

// NextDeadline: the client self-clocks on its churn pacing (and the
// phase end); everything else is reaction to stack events.
func (c *ChurnClient) NextDeadline(now int64) int64 { return c.deadline(now, c.pace.next(now)) }

// open starts handshake i of a phase toward the given base port.
func (c *ChurnClient) open(api API, now int64, i int, base uint16, preload bool) bool {
	sport, off := connAddr(i)
	fd, ok := c.dial(api, sport, c.ServerIP, base+uint16(off))
	if ok {
		c.inflight[fd] = flight{t0: now, preload: preload}
	}
	return ok
}

// Step advances the client; call once per loop iteration.
func (c *ChurnClient) Step(api API, now int64) {
	if c.failed() {
		return
	}
	switch c.state {
	case churnInit:
		c.epfd = api.EpollCreate()
		c.state = churnPreloading
		c.wantStep = true

	case churnPreloading:
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
			c.state = churnHolding
		}

	case churnChurning:
		if !c.drain(api, now) {
			return
		}
		if now >= c.pace.end {
			if len(c.inflight) == 0 {
				c.churnEnd = now
				c.state = churnDone
			}
			return
		}
		for k := c.pace.due(now); k > 0; k-- {
			if len(c.inflight) >= maxInflight {
				c.pace.deferred += k
				break
			}
			if !c.open(api, now, c.churnOpen, c.ChurnPort, false) {
				return
			}
			c.churnOpen++
		}
	}
}

// drain processes handshake completions; false means the run failed.
func (c *ChurnClient) drain(api API, now int64) bool {
	evs, ok := c.harvest(api)
	for _, ev := range evs {
		fl, ok := c.inflight[ev.FD]
		if !ok {
			continue
		}
		if ev.Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0 {
			return c.ok(hostos.ECONNREFUSED)
		}
		if ev.Events&fstack.EPOLLOUT == 0 {
			continue
		}
		delete(c.inflight, ev.FD)
		if fl.preload {
			// Established and parked: out of the watch set, held open.
			if !c.ctl(api, fstack.EpollCtlDel, ev.FD, 0) {
				return false
			}
			c.held++
			continue
		}
		c.Hist.Record(now - fl.t0)
		if _, errno := api.Write(ev.FD, c.payload); !c.ok(errno) {
			return false
		}
		api.Close(ev.FD) // client closes first: TIME_WAIT lands here
		c.completed++
	}
	return ok
}

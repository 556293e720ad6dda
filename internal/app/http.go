package app

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The exchange on the wire. The request is a fixed pipelineable GET;
// the response is a minimal 200 with an exact Content-Length, which is
// all the client's incremental parser keys on.
var (
	httpRequest = []byte("GET / HTTP/1.1\r\nHost: cherinet\r\n\r\n")
	crlfcrlf    = []byte("\r\n\r\n")
	clPrefix    = []byte("Content-Length: ")
)

// httpMaxHead bounds a request or response head, terminator included.
// A peer that never ends its head costs its connection, not the
// compartment's memory.
const httpMaxHead = 8 << 10

// nextHead finds the next complete head in a connection's partial head
// *part followed by arrived bytes b, and returns it with the bytes
// after it. *part never holds a terminator, so only its last three
// bytes are searched again. With no terminator yet b joins *part and
// the head is nil. ok is false when the head runs past httpMaxHead;
// *part then stays within it. The head may alias *part, which is empty
// again: use it before the next call.
func nextHead(part *[]byte, b []byte) (head, rest []byte, ok bool) {
	if len(*part) == 0 {
		i := bytes.Index(b, crlfcrlf)
		switch {
		case i >= 0 && i+len(crlfcrlf) <= httpMaxHead:
			return b[:i+len(crlfcrlf)], b[i+len(crlfcrlf):], true
		case i < 0 && len(b) < httpMaxHead:
			*part = append(*part, b...)
			return nil, nil, true
		}
		return nil, nil, false
	}
	had := len(*part)
	from := max(had-len(crlfcrlf)+1, 0)
	*part = append(*part, b[:min(len(b), httpMaxHead-had)]...)
	i := bytes.Index((*part)[from:], crlfcrlf)
	if i < 0 {
		return nil, nil, len(*part) < httpMaxHead
	}
	end := from + i + len(crlfcrlf)
	head, *part = (*part)[:end], (*part)[:0]
	return head, b[end-had:], true
}

// --- server ---

// httpSrvConn is one accepted keep-alive connection's parse/flush
// state. rx holds a partial request head (under httpMaxHead bytes); the
// sendq holds response bytes Write has not yet accepted.
type httpSrvConn struct {
	rx []byte
	sendq
}

// HTTPServer accepts keep-alive connections and answers every GET with
// a fixed-size response. Requests are parsed incrementally — a head
// split across segments is buffered, and several pipelined heads in
// one segment are each answered, in order.
type HTTPServer struct {
	kit
	ListenIP fstack.IPv4Addr
	Port     uint16
	Backlog  int

	started bool
	lfd     int
	conns   map[int]*httpSrvConn
	resp    []byte // precomputed header + body
	buf     []byte
	served  uint64
	bad     uint64
}

// NewHTTPServer prepares the accept side.
func NewHTTPServer(ip fstack.IPv4Addr, port uint16, backlog, respBytes int) *HTTPServer {
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", respBytes)
	resp := make([]byte, 0, len(head)+respBytes)
	resp = append(resp, head...)
	for i := 0; i < respBytes; i++ {
		resp = append(resp, byte('a'+i%26))
	}
	return &HTTPServer{
		kit:      kit{evs: make([]fstack.Event, evBuf)},
		ListenIP: ip, Port: port, Backlog: backlog,
		conns: make(map[int]*httpSrvConn),
		resp:  resp,
		buf:   make([]byte, 16<<10),
	}
}

// Restart resets the server after its stack crashed: close the stale
// descriptors (which is what hands the crashed connections' memory back
// to the arena) and re-run the listen/bind setup on the next Step. The
// supervisor's restart hook calls this — it is the compartment's main()
// starting over.
func (s *HTTPServer) Restart(api API) {
	fds := make([]int, 0, len(s.conns))
	for fd := range s.conns {
		fds = append(fds, fd)
	}
	slices.Sort(fds)
	for _, fd := range fds {
		api.Close(fd)
		delete(s.conns, fd)
	}
	if s.started {
		api.Close(s.lfd)
	}
	s.started = false
	s.failure = hostos.OK
	s.wantStep = true
}

// Served reports completed request/response exchanges (response fully
// handed to the stack).
func (s *HTTPServer) Served() uint64 { return s.served }

// Bad reports malformed request heads, and heads that ran past
// httpMaxHead (the connection is closed).
func (s *HTTPServer) Bad() uint64 { return s.bad }

// NextDeadline: past its setup step the server reacts to stack events,
// with one kind of work its own Step queues for the next one: ready
// descriptors the last EpollWait did not report — connections accepted
// after it (acceptAll) and whatever a full buffer left behind (harvest).
func (s *HTTPServer) NextDeadline(now int64) int64 { return s.deadline(now, math.MaxInt64) }

// Step advances the server; call once per loop iteration.
func (s *HTTPServer) Step(api API, now int64) {
	if s.failed() {
		return
	}
	if !s.started {
		s.started = true
		s.wantStep = false
		if s.epfd == 0 {
			// The epoll descriptor survives a stack crash (only its
			// interest set is dropped), so a restarted server reuses it.
			s.epfd = api.EpollCreate()
		}
		s.lfd, _ = s.listen(api, fstack.SockStream, s.ListenIP, s.Port, s.Backlog)
		return
	}
	evs, _ := s.harvest(api)
	for _, ev := range evs {
		if ev.FD == s.lfd {
			s.acceptAll(api)
			continue
		}
		c, ok := s.conns[ev.FD]
		if !ok {
			continue
		}
		if ev.Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0 {
			s.drop(api, ev.FD)
			continue
		}
		if ev.Events&fstack.EPOLLOUT != 0 && c.wantOut {
			if !s.flush(api, ev.FD, c) {
				continue
			}
		}
		if ev.Events&fstack.EPOLLIN != 0 {
			s.read(api, ev.FD, c)
		}
	}
}

// acceptAll registers every pending connection. A request can arrive in
// the same poll as the handshake's last ACK, after this Step's
// EpollWait: the accepted descriptor is read on the next Step, so the
// server asks for it.
func (s *HTTPServer) acceptAll(api API) {
	for {
		cfd, _, _, errno := api.Accept(s.lfd)
		if errno == hostos.EAGAIN || !s.ok(errno) || !s.ctl(api, fstack.EpollCtlAdd, cfd, fstack.EPOLLIN) {
			return
		}
		s.conns[cfd] = &httpSrvConn{}
		s.wantStep = true
	}
}

// drop closes a connection and forgets its state.
func (s *HTTPServer) drop(api API, fd int) {
	api.Close(fd)
	delete(s.conns, fd)
}

// read consumes arrived bytes, answering every complete request head.
func (s *HTTPServer) read(api API, fd int, c *httpSrvConn) {
	for {
		n, errno := api.Read(fd, s.buf)
		if errno == hostos.EAGAIN {
			return
		}
		if errno != hostos.OK || n == 0 { // reset, or EOF: the client is done with it
			s.drop(api, fd)
			return
		}
		for b := s.buf[:n]; len(b) > 0; {
			head, rest, ok := nextHead(&c.rx, b)
			if !ok || head != nil && !bytes.HasPrefix(head, []byte("GET ")) {
				s.bad++
				s.drop(api, fd)
				return
			}
			if head == nil {
				break
			}
			b = rest
			c.tx = append(c.tx, s.resp...)
			s.served++
		}
		if len(c.tx) > c.txHead {
			if !s.flush(api, fd, c) {
				return
			}
		}
	}
}

// flush pushes pending response bytes, resuming from the writability
// event after an EAGAIN. Returns false if the connection was dropped
// or the server failed.
func (s *HTTPServer) flush(api API, fd int, c *httpSrvConn) bool {
	if s.kit.flush(api, fd, &c.sendq) != hostos.OK {
		s.drop(api, fd)
		return false
	}
	return !s.failed()
}

// --- client ---

// httpCliConn is one persistent connection's request pipeline: t0 is
// the head-indexed FIFO of outstanding requests' issue instants, hdr
// holds a partial response head (under httpMaxHead bytes), need counts
// the body bytes still expected (-1 while parsing the head), the sendq
// buffers request bytes the stack has not accepted.
type httpCliConn struct {
	fd      int
	up      bool
	t0      []int64
	t0Head  int
	hdr     []byte
	need    int
	bodyLen int // current response's Content-Length (trace argument)
	sendq
}

func (c *httpCliConn) outstanding() int { return len(c.t0) - c.t0Head }

type httpCliState int

const (
	httpCliInit httpCliState = iota
	httpCliConnecting
	httpCliRunning
	httpCliDone
)

// HTTPClient drives Conns keep-alive connections at the server. With
// Rate > 0 it is open-loop: requests are paced at Rate per second for
// DurationNS and assigned round-robin, pipelining onto connections
// that are still waiting. With Rate == 0 it is closed-loop: every
// connection issues back-to-back with one request outstanding, so
// Conns is the concurrency. Per-request latency (issue to last
// response byte) is recorded into Hist.
type HTTPClient struct {
	kit
	ServerIP   fstack.IPv4Addr
	Port       uint16
	Conns      int
	Sports     []uint16 // optional managed source ports, len == Conns
	Rate       float64  // requests/s; 0 = closed-loop
	DurationNS int64
	Hist       stats.Histogram
	Trace      *obs.Trace // optional per-request trace events
	Src        uint16     // trace source id (worker index)
	// Resilient survives server death: a reset connection counts its
	// outstanding requests as lost and reconnects instead of failing
	// the run. The reconnect needs no backoff — the reset itself only
	// arrives once the restarted stack answers a retransmit, so the
	// server is already back up when the client learns of the crash.
	Resilient bool
	// OnComplete, when set, observes every completed request: when it
	// finished and when it was issued (the time-to-recovery probe: the
	// first completion of a request issued after a fault bounds the
	// outage — completions alone do not, since responses already in
	// flight at the crash still land moments later).
	OnComplete func(now, issued int64)
	// TimeoutNS, with Resilient, bounds how long a request may stay
	// outstanding before the connection is presumed dead and replaced.
	// A crashed stack is silent — if the request was fully ACKed before
	// the crash, nothing is in flight to retransmit and no reset ever
	// arrives, so liveness needs an application clock. 0 disables it.
	TimeoutNS int64

	state     httpCliState
	conns     []*httpCliConn
	byFD      map[int]int
	buf       []byte
	pace      pacer
	endNS     int64
	issued    uint64
	completed uint64
	lost      uint64
	resets    uint64
	malformed uint64
	inflight  int
	rr        int
}

// NewHTTPClient prepares the request driver.
func NewHTTPClient(ip fstack.IPv4Addr, port uint16, conns int, sports []uint16, rate float64, durationNS int64) (*HTTPClient, error) {
	if conns < 1 {
		return nil, fmt.Errorf("app: http client needs at least one connection")
	}
	if sports != nil && len(sports) != conns {
		return nil, fmt.Errorf("app: %d source ports for %d connections", len(sports), conns)
	}
	return &HTTPClient{
		kit:      kit{evs: make([]fstack.Event, evBuf)},
		ServerIP: ip, Port: port, Conns: conns, Sports: sports,
		Rate: rate, DurationNS: durationNS,
		byFD: make(map[int]int),
		buf:  make([]byte, 16<<10),
	}, nil
}

// Done reports that the run is complete: duration elapsed and every
// outstanding response drained.
func (c *HTTPClient) Done() bool { return c.state == httpCliDone || c.failed() }

// Issued / Completed / Deferred report requests sent, responses fully
// received, and pace slots skipped because maxOutstanding was reached.
func (c *HTTPClient) Issued() uint64    { return c.issued }
func (c *HTTPClient) Completed() uint64 { return c.completed }
func (c *HTTPClient) Deferred() uint64  { return c.pace.deferred }

// Lost / Resets report requests abandoned on reset connections and
// connection re-establishments (Resilient mode).
func (c *HTTPClient) Lost() uint64   { return c.lost }
func (c *HTTPClient) Resets() uint64 { return c.resets }

// Malformed reports responses the client refused to parse: one with no
// request outstanding, a negative Content-Length, or a head that ran past
// httpMaxHead. Each one resets its connection (see read).
func (c *HTTPClient) Malformed() uint64 { return c.malformed }

// RunNS returns the measured phase's virtual length (valid once Done).
func (c *HTTPClient) RunNS() int64 { return c.endNS - c.pace.start }

// NextDeadline: open-loop pacing self-clocks; the duration edge gets
// its own instant so closed-loop runs end crisply; drains are
// event-driven, request timeouts are not.
func (c *HTTPClient) NextDeadline(now int64) int64 {
	return c.deadline(now, min(c.expiry(), c.pace.next(now)))
}

// expiry is the earliest instant an outstanding request times out
// (MaxInt64 with no request timeout configured or nothing outstanding).
func (c *HTTPClient) expiry() int64 {
	if !c.Resilient || c.TimeoutNS <= 0 {
		return math.MaxInt64
	}
	d := int64(math.MaxInt64)
	for _, cc := range c.conns {
		if cc.up && cc.outstanding() > 0 {
			d = min(d, cc.t0[cc.t0Head]+c.TimeoutNS)
		}
	}
	return d
}

// Step advances the client; call once per loop iteration.
func (c *HTTPClient) Step(api API, now int64) {
	if c.failed() {
		return
	}
	switch c.state {
	case httpCliInit:
		c.epfd = api.EpollCreate()
		for i := 0; i < c.Conns; i++ {
			c.conns = append(c.conns, &httpCliConn{})
			if !c.connect(api, i) {
				return
			}
		}
		c.state = httpCliConnecting

	case httpCliConnecting:
		if !c.drain(api, now) {
			return
		}
		for _, cc := range c.conns {
			if !cc.up {
				return
			}
		}
		c.pace = pacer{rate: c.Rate, start: now, end: now + c.DurationNS}
		c.state = httpCliRunning
		c.wantStep = true

	case httpCliRunning:
		if !c.drain(api, now) {
			return
		}
		if c.Resilient && c.TimeoutNS > 0 {
			// Replace connections whose oldest request has sat
			// unanswered past the timeout (a silently dead server).
			for i, cc := range c.conns {
				if cc.up && cc.outstanding() > 0 && now-cc.t0[cc.t0Head] >= c.TimeoutNS {
					if !c.reconnect(api, i) {
						return
					}
				}
			}
		}
		if now >= c.pace.end {
			if c.inflight == 0 {
				c.endNS = now
				for _, cc := range c.conns {
					api.Close(cc.fd)
				}
				c.state = httpCliDone
			}
			return
		}
		if c.Rate > 0 {
			// Open-loop: issue every due pace slot round-robin.
			for k := c.pace.due(now); k > 0; k-- {
				var cc *httpCliConn
				if c.inflight < maxOutstanding {
					cc = c.pickUp()
				}
				if cc == nil {
					// At the cap, or every connection is re-establishing:
					// the due slots are honest backpressure.
					c.pace.deferred += k
					break
				}
				if !c.issue(api, cc, now) {
					return
				}
			}
			return
		}
		// Closed-loop: every idle connection issues immediately.
		for _, cc := range c.conns {
			if cc.up && cc.outstanding() == 0 {
				if !c.issue(api, cc, now) {
					return
				}
			}
		}
	}
}

// reconnect replaces connection i after its server reset it: the
// outstanding requests are counted lost, the stale fd is closed, and a
// fresh connect starts through the same epoll. Any managed source port
// is reused — safe, because the reset already aborted the old
// connection and released its binding.
func (c *HTTPClient) reconnect(api API, i int) bool {
	cc := c.conns[i]
	n := cc.outstanding()
	c.lost += uint64(n)
	c.inflight -= n
	c.resets++
	api.Close(cc.fd)
	delete(c.byFD, cc.fd)
	return c.connect(api, i)
}

// connect dials connection i, from its managed source port if it has
// one, keeping the slot's buffers.
func (c *HTTPClient) connect(api API, i int) bool {
	var sport uint16
	if c.Sports != nil {
		sport = c.Sports[i]
	}
	fd, ok := c.dial(api, sport, c.ServerIP, c.Port)
	if ok {
		cc := c.conns[i]
		*cc = httpCliConn{fd: fd, need: -1, t0: cc.t0[:0], hdr: cc.hdr[:0], sendq: sendq{tx: cc.tx[:0]}}
		c.byFD[fd] = i
	}
	return ok
}

// reset handles a connection that was reset or closed under the
// client: a Resilient client replaces it, any other fails with errno.
func (c *HTTPClient) reset(api API, cc *httpCliConn, errno hostos.Errno) bool {
	if c.Resilient {
		return c.reconnect(api, c.byFD[cc.fd])
	}
	return c.ok(errno)
}

// issue starts one request on a connection: the latency clock starts
// here, before any Write, so send-side queueing is measured.
func (c *HTTPClient) issue(api API, cc *httpCliConn, now int64) bool {
	cc.t0 = append(cc.t0, now)
	c.issued++
	c.inflight++
	cc.tx = append(cc.tx, httpRequest...)
	return c.flush(api, cc)
}

// pickUp returns the next round-robin connection that is established,
// or nil when every connection is down (mid-reconnect). With all
// connections up it degenerates to the plain round-robin.
func (c *HTTPClient) pickUp() *httpCliConn {
	for range c.conns {
		cc := c.conns[c.rr%len(c.conns)]
		c.rr++
		if cc.up {
			return cc
		}
	}
	return nil
}

// flush pushes buffered request bytes, resuming from the writability
// event after an EAGAIN.
func (c *HTTPClient) flush(api API, cc *httpCliConn) bool {
	if errno := c.kit.flush(api, cc.fd, &cc.sendq); errno != hostos.OK {
		return c.reset(api, cc, errno)
	}
	return !c.failed()
}

// drain processes stack events; false means the run failed. Every
// queued next-Step request ends at its harvest.
func (c *HTTPClient) drain(api API, now int64) bool {
	evs, ok := c.harvest(api)
	for _, ev := range evs {
		i, known := c.byFD[ev.FD]
		if !known {
			continue
		}
		cc := c.conns[i]
		if ev.Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0 {
			if !c.reset(api, cc, hostos.ECONNRESET) {
				return false
			}
			continue
		}
		if !cc.up {
			if ev.Events&fstack.EPOLLOUT != 0 {
				cc.up = true
				if !c.ctl(api, fstack.EpollCtlMod, cc.fd, fstack.EPOLLIN) {
					return false
				}
			}
			continue
		}
		if ev.Events&fstack.EPOLLOUT != 0 && cc.wantOut {
			if !c.flush(api, cc) {
				return false
			}
		}
		if ev.Events&fstack.EPOLLIN != 0 {
			if !c.read(api, cc, now) {
				return false
			}
		}
	}
	return ok
}

// read consumes response bytes, completing requests in FIFO order.
func (c *HTTPClient) read(api API, cc *httpCliConn, now int64) bool {
	for {
		n, errno := api.Read(cc.fd, c.buf)
		if errno == hostos.EAGAIN {
			return true
		}
		if errno != hostos.OK || n == 0 {
			return c.reset(api, cc, hostos.ECONNRESET)
		}
		if !c.feed(cc, c.buf[:n], now) {
			if c.failed() {
				return false
			}
			// A malformed response: the stream's framing is lost, so the
			// connection goes and a fresh one is dialled in its place.
			return c.reconnect(api, c.byFD[cc.fd])
		}
	}
}

// contentLength reads a response head's Content-Length.
func contentLength(head []byte) (int, bool) {
	_, rest, ok := bytes.Cut(head, clPrefix)
	if !ok {
		return 0, false
	}
	digits, _, _ := bytes.Cut(rest, []byte("\r"))
	v, err := strconv.Atoi(string(digits))
	return v, err == nil
}

// feed advances the incremental response parser over arrived bytes. It
// returns false when the stream cannot be parsed on: a head without a
// readable Content-Length fails the run, and a response no request is
// outstanding for, one with a negative length or a head past
// httpMaxHead is counted malformed and completes nothing (the caller
// resets the connection).
func (c *HTTPClient) feed(cc *httpCliConn, b []byte, now int64) bool {
	for len(b) > 0 {
		if cc.need < 0 {
			head, rest, ok := nextHead(&cc.hdr, b)
			if !ok {
				c.malformed++
				return false
			}
			if head == nil {
				return true
			}
			b = rest // body bytes, and what follows
			v, ok := contentLength(head)
			switch {
			case cc.outstanding() == 0 || ok && v < 0:
				c.malformed++
				return false
			case !ok:
				return c.ok(hostos.EINVAL)
			}
			cc.need, cc.bodyLen = v, v
			if cc.need == 0 {
				c.complete(cc, now)
			}
			continue
		}
		take := min(len(b), cc.need)
		cc.need -= take
		b = b[take:]
		if cc.need == 0 {
			c.complete(cc, now)
		}
	}
	return true
}

// complete closes out the oldest outstanding request on the
// connection: the latency clock stops at the last response byte.
func (c *HTTPClient) complete(cc *httpCliConn, now int64) {
	t0 := cc.t0[cc.t0Head]
	cc.t0Head++
	if cc.t0Head == len(cc.t0) {
		cc.t0, cc.t0Head = cc.t0[:0], 0
	}
	cc.need = -1
	c.inflight--
	c.completed++
	c.Hist.Record(now - t0)
	if c.Trace != nil {
		c.Trace.Record(now, obs.EvAppRequest, c.Src, now-t0, int64(cc.bodyLen), obs.ReqHTTP)
	}
	if c.OnComplete != nil {
		c.OnComplete(now, t0)
	}
}

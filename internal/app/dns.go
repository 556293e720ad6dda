package app

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The DNS-shaped wire format: a real 12-byte header (ID, flags,
// counts) and one fixed A-record question, answered by echoing the
// question and appending one compressed-name A record. The state
// machines key on the 16-bit ID and the QR bit (set on a response).
const (
	dnsHeaderLen = 12
	dnsQR        = 0x80 // in the flags' high byte, msg[2]
)

// dnsQuestion is QNAME "cherinet.test." + QTYPE A + QCLASS IN.
var dnsQuestion = []byte("\x08cherinet\x04test\x00\x00\x01\x00\x01")

// dnsAnswerRR is the answer record: a name pointer to the question
// (0xC00C), type A, class IN, TTL 60, RDLENGTH 4, RDATA 10.0.0.2.
var dnsAnswerRR = []byte{
	0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01,
	0x00, 0x00, 0x00, 0x3C, 0x00, 0x04, 10, 0, 0, 2,
}

// dnsQueryLen is the fixed query size.
var dnsQueryLen = dnsHeaderLen + len(dnsQuestion)

// putDNSQuery writes a query with the given ID; buf needs dnsQueryLen
// bytes. Flags 0x0100 (RD), QDCOUNT 1.
func putDNSQuery(buf []byte, id uint16) int {
	for i := 0; i < dnsHeaderLen; i++ {
		buf[i] = 0
	}
	binary.BigEndian.PutUint16(buf[0:], id)
	binary.BigEndian.PutUint16(buf[2:], 0x0100)
	binary.BigEndian.PutUint16(buf[4:], 1) // QDCOUNT
	copy(buf[dnsHeaderLen:], dnsQuestion)
	return dnsQueryLen
}

// putDNSAnswer writes the answer to a query: same ID, flags 0x8180
// (QR|RD|RA), the question echoed, one answer record appended.
func putDNSAnswer(buf []byte, id uint16) int {
	for i := 0; i < dnsHeaderLen; i++ {
		buf[i] = 0
	}
	binary.BigEndian.PutUint16(buf[0:], id)
	binary.BigEndian.PutUint16(buf[2:], 0x8180)
	binary.BigEndian.PutUint16(buf[4:], 1) // QDCOUNT
	binary.BigEndian.PutUint16(buf[6:], 1) // ANCOUNT
	n := dnsHeaderLen
	n += copy(buf[n:], dnsQuestion)
	n += copy(buf[n:], dnsAnswerRR)
	return n
}

// dnsID extracts the message ID; false if the message is too short to
// carry a header.
func dnsID(msg []byte) (uint16, bool) {
	if len(msg) < dnsHeaderLen {
		return 0, false
	}
	return binary.BigEndian.Uint16(msg), true
}

// --- server ---

// DNSServer answers every well-formed query on its port with a fixed
// A-record response carrying the query's ID. It is epoll-driven: one
// bound datagram socket, drained to EAGAIN whenever it is readable.
type DNSServer struct {
	kit
	ListenIP fstack.IPv4Addr
	Port     uint16

	started   bool
	fd        int
	buf       []byte
	out       []byte
	served    uint64
	malformed uint64
	txBusy    uint64
}

// NewDNSServer prepares the responder.
func NewDNSServer(ip fstack.IPv4Addr, port uint16) *DNSServer {
	return &DNSServer{
		kit:      kit{evs: make([]fstack.Event, evBuf)},
		ListenIP: ip, Port: port,
		buf: make([]byte, 2048),
		out: make([]byte, 2048),
	}
}

// Served reports answered queries.
func (s *DNSServer) Served() uint64 { return s.served }

// Malformed reports datagrams left unanswered because they are not a
// query: too short to carry a DNS header, or a response (QR set, RFC 1035
// §4.1.1) — answering one would let two responders reflect forever.
func (s *DNSServer) Malformed() uint64 { return s.malformed }

// TxBusy reports answers dropped because the transmit path was full;
// the client's retry machinery recovers them.
func (s *DNSServer) TxBusy() uint64 { return s.txBusy }

// NextDeadline: the server is purely event-driven past its setup step.
func (s *DNSServer) NextDeadline(now int64) int64 { return s.deadline(now, math.MaxInt64) }

// Step advances the server; call once per loop iteration.
func (s *DNSServer) Step(api API, now int64) {
	if s.failed() {
		return
	}
	if !s.started {
		s.started = true
		s.wantStep = false
		s.epfd = api.EpollCreate()
		s.fd, _ = s.listen(api, fstack.SockDgram, s.ListenIP, s.Port, 0)
		return
	}
	evs, _ := s.harvest(api)
	for _, ev := range evs {
		if ev.FD != s.fd || ev.Events&fstack.EPOLLIN == 0 {
			continue
		}
		for {
			n, ip, port, errno := api.RecvFrom(s.fd, s.buf)
			if errno == hostos.EAGAIN {
				break
			}
			if !s.ok(errno) {
				return
			}
			id, ok := dnsID(s.buf[:n])
			if !ok || s.buf[2]&dnsQR != 0 {
				s.malformed++
				continue
			}
			m := putDNSAnswer(s.out, id)
			_, errno = api.SendTo(s.fd, s.out[:m], ip, port)
			if errno == hostos.EAGAIN {
				// TX ring full: drop the answer, the client retries.
				s.txBusy++
				continue
			}
			if !s.ok(errno) {
				return
			}
			s.served++
		}
	}
}

// --- client ---

// dnsFlight is the live state of one query: t0 is the first-send
// instant (the latency clock start, unchanged by retries), tries the
// attempts made (0: the ID is not in flight), attempt a generation
// counter matching the newest timeout-queue entry (older entries for
// the same ID are stale).
type dnsFlight struct {
	t0      int64
	tries   int32
	attempt int32
}

// dnsTimeout is one timeout-queue entry. The queue is a head-indexed
// FIFO: the timeout is a constant, so send order is deadline order.
type dnsTimeout struct {
	id       uint16
	attempt  int32
	deadline int64
}

type dnsCliState int

const (
	dnsCliInit dnsCliState = iota
	dnsCliRunning
	dnsCliDone
)

// DNSClient drives queries at the responder. With Rate > 0 it is
// open-loop (paced at Rate per second for DurationNS); with Rate == 0
// it is closed-loop, holding Concurrency queries outstanding. A query
// unanswered for TimeoutNS is retransmitted, up to MaxTries total
// attempts, then abandoned; Timeouts counts every expiration and
// Failed the abandonments. Latency is recorded first-send to answer.
type DNSClient struct {
	kit
	ServerIP    fstack.IPv4Addr
	Port        uint16
	Sport       uint16 // local port; 0 lets the stack pick
	Rate        float64
	Concurrency int
	DurationNS  int64
	TimeoutNS   int64
	MaxTries    int
	Hist        stats.Histogram
	Trace       *obs.Trace // optional per-request trace events
	Src         uint16     // trace source id (worker index)

	state     dnsCliState
	fd        int
	buf       []byte
	qbuf      []byte
	flights   []dnsFlight // indexed by ID: one slab for every ID
	inflight  int
	queue     []dnsTimeout
	qHead     int
	nextID    uint16
	pace      pacer
	endNS     int64
	issued    uint64
	completed uint64
	timeouts  uint64
	abandoned uint64
	stray     uint64
}

// NewDNSClient prepares the query driver.
func NewDNSClient(ip fstack.IPv4Addr, port, sport uint16, rate float64, concurrency int, durationNS, timeoutNS int64, maxTries int) (*DNSClient, error) {
	if rate <= 0 && concurrency < 1 {
		return nil, fmt.Errorf("app: closed-loop dns client needs a concurrency")
	}
	if timeoutNS <= 0 || maxTries < 1 {
		return nil, fmt.Errorf("app: dns client needs a positive timeout and try budget")
	}
	return &DNSClient{
		ServerIP: ip, Port: port, Sport: sport,
		Rate: rate, Concurrency: concurrency,
		DurationNS: durationNS, TimeoutNS: timeoutNS, MaxTries: maxTries,
		buf:     make([]byte, 2048),
		qbuf:    make([]byte, 2048),
		flights: make([]dnsFlight, 1<<16),
		nextID:  1,
	}, nil
}

// Done reports that the run is complete: duration elapsed and every
// outstanding query answered or abandoned.
func (c *DNSClient) Done() bool { return c.state == dnsCliDone || c.failed() }

// Issued / Completed report queries sent (retries not counted) and
// answered.
func (c *DNSClient) Issued() uint64    { return c.issued }
func (c *DNSClient) Completed() uint64 { return c.completed }

// Timeouts counts timeout expirations (each triggering a retry or an
// abandonment); Failed counts queries abandoned after MaxTries.
func (c *DNSClient) Timeouts() uint64 { return c.timeouts }
func (c *DNSClient) Failed() uint64   { return c.abandoned }

// Deferred reports pace slots skipped at the outstanding cap.
func (c *DNSClient) Deferred() uint64 { return c.pace.deferred }

// Stray counts datagrams that were not an answer from the server — from
// another address or port, a query, or too short for a header — and so
// completed nothing.
func (c *DNSClient) Stray() uint64 { return c.stray }

// RunNS returns the measured phase's virtual length (valid once Done).
func (c *DNSClient) RunNS() int64 { return c.endNS - c.pace.start }

// NextDeadline: the earliest of the next pace slot, the oldest
// outstanding query's timeout, and the duration edge. Once done, the
// timeout queue holds only stale entries.
func (c *DNSClient) NextDeadline(now int64) int64 {
	d := int64(math.MaxInt64)
	if c.state == dnsCliRunning {
		d = c.pace.next(now)
		if c.qHead < len(c.queue) {
			d = min(d, c.queue[c.qHead].deadline)
		}
	}
	return c.deadline(now, d)
}

// Step advances the client; call once per loop iteration.
func (c *DNSClient) Step(api API, now int64) {
	if c.failed() {
		return
	}
	switch c.state {
	case dnsCliInit:
		fd, errno := api.Socket(fstack.SockDgram)
		if !c.ok(errno) || c.Sport != 0 && !c.ok(api.Bind(fd, fstack.IPv4Addr{}, c.Sport)) {
			return
		}
		c.fd = fd
		c.pace = pacer{rate: c.Rate, start: now, end: now + c.DurationNS}
		c.state = dnsCliRunning
		c.wantStep = true

	case dnsCliRunning:
		c.wantStep = false
		if !c.drainAnswers(api, now) || !c.expire(api, now) {
			return
		}
		if now >= c.pace.end {
			if c.inflight == 0 {
				c.endNS = now
				api.Close(c.fd)
				c.state = dnsCliDone
			}
			return
		}
		for k := c.pace.due(now); k > 0; k-- {
			if c.inflight >= maxOutstanding {
				c.pace.deferred += k
				break
			}
			if !c.query(api, now) {
				return
			}
		}
		// Closed-loop: hold Concurrency queries outstanding.
		for c.Rate <= 0 && c.inflight < c.Concurrency {
			if !c.query(api, now) {
				return
			}
		}
	}
}

// query issues a fresh query: the latency clock starts here.
func (c *DNSClient) query(api API, now int64) bool {
	id := c.allocID()
	c.flights[id] = dnsFlight{t0: now, tries: 1}
	c.inflight++
	c.queue = append(c.queue, dnsTimeout{id: id, deadline: now + c.TimeoutNS})
	c.issued++
	return c.send(api, id)
}

// allocID picks the next 16-bit ID not currently in flight.
func (c *DNSClient) allocID() uint16 {
	for {
		id := c.nextID
		c.nextID++
		if c.nextID == 0 {
			c.nextID = 1
		}
		if c.flights[id].tries == 0 {
			return id
		}
	}
}

// send transmits the query datagram for an ID. A full TX path is not
// fatal: the timeout machinery re-offers the query.
func (c *DNSClient) send(api API, id uint16) bool {
	m := putDNSQuery(c.qbuf, id)
	_, errno := api.SendTo(c.fd, c.qbuf[:m], c.ServerIP, c.Port)
	return errno == hostos.EAGAIN || c.ok(errno)
}

// popTimeout removes the oldest queue entry; ok is false when empty or
// the head is still in the future.
func (c *DNSClient) popTimeout(now int64) (dnsTimeout, bool) {
	if c.qHead >= len(c.queue) || c.queue[c.qHead].deadline > now {
		return dnsTimeout{}, false
	}
	e := c.queue[c.qHead]
	c.qHead++
	// An open-loop run never drains the queue (answered queries leave
	// stale entries behind), so the consumed head is cut off once it is
	// the larger half: the queue stays O(outstanding), not O(issued).
	if c.qHead > len(c.queue)/2 {
		n := copy(c.queue, c.queue[c.qHead:])
		c.queue, c.qHead = c.queue[:n], 0
	}
	return e, true
}

// expire handles due timeouts: stale entries (answered, or superseded
// by a retry) are discarded, live ones retry or abandon.
func (c *DNSClient) expire(api API, now int64) bool {
	for {
		e, ok := c.popTimeout(now)
		if !ok {
			return true
		}
		fl := &c.flights[e.id]
		if fl.tries == 0 || fl.attempt != e.attempt {
			continue
		}
		c.timeouts++
		if int(fl.tries) < c.MaxTries {
			fl.tries++
			fl.attempt++
			c.queue = append(c.queue, dnsTimeout{id: e.id, attempt: fl.attempt, deadline: now + c.TimeoutNS})
			if !c.send(api, e.id) {
				return false
			}
			continue
		}
		t0 := fl.t0
		*fl = dnsFlight{}
		c.inflight--
		c.abandoned++
		if c.Trace != nil {
			c.Trace.Record(now, obs.EvAppRequest, c.Src, now-t0, 0, obs.ReqTimeout)
		}
	}
}

// drainAnswers consumes arrived answers; false means the run failed.
func (c *DNSClient) drainAnswers(api API, now int64) bool {
	for {
		n, ip, port, errno := api.RecvFrom(c.fd, c.buf)
		if errno == hostos.EAGAIN {
			return true
		}
		if errno == hostos.EINVAL && c.Sport == 0 && c.issued == 0 {
			return true // not yet auto-bound: nothing can have arrived
		}
		if !c.ok(errno) {
			return false
		}
		id, ok := dnsID(c.buf[:n])
		if !ok || ip != c.ServerIP || port != c.Port || c.buf[2]&dnsQR == 0 {
			c.stray++
			continue
		}
		fl := &c.flights[id]
		if fl.tries == 0 {
			continue // duplicate answer after a retry resolved it
		}
		t0 := fl.t0
		*fl = dnsFlight{}
		c.inflight--
		c.completed++
		c.Hist.Record(now - t0)
		if c.Trace != nil {
			c.Trace.Record(now, obs.EvAppRequest, c.Src, now-t0, int64(n), obs.ReqDNS)
		}
	}
}

package app

import (
	"fmt"
	"math"

	"repro/internal/fstack"
	"repro/internal/hostos"
)

// Report is the final result of a client or server run.
type Report struct {
	Bytes   uint64
	StartNS int64
	EndNS   int64
}

// Mbps returns the whole-run goodput in Mbit/s.
func (r Report) Mbps() float64 {
	d := r.EndNS - r.StartNS
	if d <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / float64(d) * 1e3
}

// Efficiency returns goodput over the theoretical line maximum, as
// Table II's "Efficiency" column (1 Gbit/s per port).
func (r Report) Efficiency(lineMbps float64) float64 {
	return r.Mbps() / lineMbps
}

// String formats the report iperf3-style.
func (r Report) String() string {
	return fmt.Sprintf("%d bytes in %.3f s = %.0f Mbit/s",
		r.Bytes, float64(r.EndNS-r.StartNS)/1e9, r.Mbps())
}

// writeChunk is the application write size (iperf3's default 128 KiB).
const writeChunk = 128 * 1024

// readChunk is the server's read size.
const readChunk = 64 * 1024

// iperfState is shared by both ends: opening is the client connecting
// or the server accepting.
type iperfState int

const (
	iperfInit iperfState = iota
	iperfOpening
	iperfRunning
	iperfDone
)

// IperfClient is the sender ("client (sender) mode" of Table II).
type IperfClient struct {
	kit
	ServerIP   fstack.IPv4Addr
	ServerPort uint16
	DurationNS int64
	// LocalPort, when nonzero, binds the connection's source port
	// (iperf3's --cport). Load generators against RSS-sharded receivers
	// engineer source ports to cover every queue.
	LocalPort uint16

	state  iperfState
	fd     int
	buf    []byte
	report Report
}

// NewIperfClient prepares a sender toward ip:port running for duration
// ns.
func NewIperfClient(ip fstack.IPv4Addr, port uint16, durationNS int64) *IperfClient {
	buf := make([]byte, writeChunk)
	for i := range buf {
		buf[i] = byte(i) // incompressible-ish pattern; content is irrelevant
	}
	return &IperfClient{kit: kit{evs: make([]fstack.Event, 4)}, ServerIP: ip, ServerPort: port, DurationNS: durationNS, buf: buf}
}

// Done reports completion.
func (c *IperfClient) Done() bool { return c.state == iperfDone || c.failed() }

// NextDeadline reports the next virtual instant at which Step would do
// something on its own clock rather than in reaction to stack events:
// the transfer-duration end. All other client activity (connecting,
// refilling the socket buffer) is unblocked by stack events, which the
// testbed's own deadlines cover — except the first write after
// connecting, which happens on the Step after the one that saw the
// handshake complete (wantStep). Past it the
// client is provably blocked on stack events: its write loop always
// runs the socket buffer to EAGAIN or a short write.
func (c *IperfClient) NextDeadline(now int64) int64 {
	d := int64(math.MaxInt64)
	if c.state == iperfRunning {
		d = c.report.StartNS + c.DurationNS
	}
	return c.deadline(now, d)
}

// Report returns the result (valid once Done).
func (c *IperfClient) Report() Report { return c.report }

// Step advances the client; call it once per loop iteration (or gate
// slot) with the current time. It never blocks.
func (c *IperfClient) Step(api API, now int64) {
	if c.failed() {
		return
	}
	switch c.state {
	case iperfInit:
		c.epfd = api.EpollCreate()
		var ok bool
		if c.fd, ok = c.dial(api, c.LocalPort, c.ServerIP, c.ServerPort); ok {
			c.state = iperfOpening
		}

	case iperfOpening:
		if c.established(api, c.fd) {
			c.state = iperfRunning
			c.report.StartNS = now
			c.wantStep = true // first write happens next Step
		}

	case iperfRunning:
		c.wantStep = false
		if now-c.report.StartNS >= c.DurationNS {
			c.report.EndNS = now
			api.Close(c.fd)
			c.state = iperfDone
			return
		}
		for {
			n, errno := api.Write(c.fd, c.buf)
			if errno == hostos.EAGAIN || !c.ok(errno) {
				break
			}
			c.report.Bytes += uint64(n)
			if n < len(c.buf) {
				break
			}
		}
	}
}

// IperfServer is the receiver ("server (receiver) mode" of Table II).
// It serves exactly one connection and finishes at EOF.
type IperfServer struct {
	kit
	ListenIP   fstack.IPv4Addr
	ListenPort uint16

	state    iperfState
	lfd, cfd int
	buf      []byte
	report   Report
	haveData bool
}

// NewIperfServer prepares a receiver on ip:port (zero IP = all
// interfaces).
func NewIperfServer(ip fstack.IPv4Addr, port uint16) *IperfServer {
	return &IperfServer{kit: kit{evs: make([]fstack.Event, 4)}, ListenIP: ip, ListenPort: port, buf: make([]byte, readChunk)}
}

// Done reports completion.
func (s *IperfServer) Done() bool { return s.state == iperfDone || s.failed() }

// NextDeadline: a server is event-driven (it reacts to accepted
// connections and received data), so apart from the first read after
// accepting, which happens on the next Step and must not be leapt
// over, it never holds timed work.
func (s *IperfServer) NextDeadline(now int64) int64 { return s.deadline(now, math.MaxInt64) }

// Report returns the result (valid once Done).
func (s *IperfServer) Report() Report { return s.report }

// Step advances the server; call once per loop iteration.
func (s *IperfServer) Step(api API, now int64) {
	if s.failed() {
		return
	}
	switch s.state {
	case iperfInit:
		s.epfd = api.EpollCreate()
		var ok bool
		if s.lfd, ok = s.listen(api, fstack.SockStream, s.ListenIP, s.ListenPort, 8); ok {
			s.state = iperfOpening
		}

	case iperfOpening:
		evs, _ := s.harvest(api)
		for _, ev := range evs {
			if ev.FD != s.lfd || ev.Events&fstack.EPOLLIN == 0 {
				continue
			}
			cfd, _, _, errno := api.Accept(s.lfd)
			if errno == hostos.EAGAIN {
				continue
			}
			if !s.ok(errno) || !s.ctl(api, fstack.EpollCtlAdd, cfd, fstack.EPOLLIN) {
				return
			}
			s.cfd = cfd
			s.state = iperfRunning
			s.wantStep = true // first read happens next Step
		}

	case iperfRunning:
		s.wantStep = false
		for {
			n, errno := api.Read(s.cfd, s.buf)
			if errno == hostos.EAGAIN || !s.ok(errno) {
				return
			}
			if n == 0 { // EOF: sender is done
				s.report.EndNS = now
				api.Close(s.cfd)
				api.Close(s.lfd)
				s.state = iperfDone
				return
			}
			if !s.haveData {
				s.haveData = true
				s.report.StartNS = now
			}
			s.report.Bytes += uint64(n)
			s.report.EndNS = now
		}
	}
}

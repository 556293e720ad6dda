package app

import (
	"math"

	"repro/internal/fstack"
	"repro/internal/hostos"
)

// ffWriter is what the probe and the hammer of Figs. 4-6 share: one
// connection to a byte sink and the payload each ff_write offers it.
type ffWriter struct {
	kit
	ip      fstack.IPv4Addr
	port    uint16
	payload []byte
	fd      int
	// dialed, then up once the handshake's EPOLLOUT was seen; the Step
	// after that is the endpoint's own to ask for.
	dialed, up bool
}

func newFFWriter(ip fstack.IPv4Addr, port uint16, payload int) ffWriter {
	return ffWriter{kit: kit{evs: make([]fstack.Event, 4)}, ip: ip, port: port, payload: make([]byte, payload)}
}

// connect is a Step of an endpoint that is not up yet.
func (w *ffWriter) connect(api API) {
	if !w.dialed {
		w.epfd = api.EpollCreate()
		w.fd, w.dialed = w.dial(api, 0, w.ip, w.port)
		return
	}
	if w.established(api, w.fd) {
		w.up, w.wantStep = true, true
	}
}

// WriteProbe is the measurement of Figs. 4-6 (§IV): connect to a byte
// sink and, once started, time ff_write calls an interval apart, each
// bracketed by two reads of the clock the way code at the probe's site
// must read it — a plain syscall in a process, the Intravisor trampoline
// in a cVM. A sample is whatever those reads see pass. A refused (EAGAIN)
// write is retried an interval later and not sampled.
type WriteProbe struct {
	ffWriter
	iterations int
	intervalNS int64
	clock      func() int64
	nextAt     int64 // the next timed write: none before Start or once done
	samples    []int64
}

// NewWriteProbe prepares a probe toward the sink at ip:port: iterations
// timed writes of payload bytes, intervalNS apart, clock read around each.
func NewWriteProbe(ip fstack.IPv4Addr, port uint16, iterations int, intervalNS int64, payload int, clock func() int64) *WriteProbe {
	return &WriteProbe{ffWriter: newFFWriter(ip, port, payload), iterations: iterations, intervalNS: intervalNS,
		clock: clock, nextAt: math.MaxInt64, samples: make([]int64, 0, iterations)}
}

// Connected reports that the connection is up (or the probe failed, which
// ends a phase waiting on it too: the run then reports the errno).
func (p *WriteProbe) Connected() bool { return p.up || p.failed() }

// Start begins the timed writes, the first at now. Until then a connected
// probe asks for every Step, so the run's next phase starts on that tick.
func (p *WriteProbe) Start(now int64) { p.nextAt, p.wantStep = now, false }

// Done reports that every sample is taken.
func (p *WriteProbe) Done() bool { return len(p.samples) >= p.iterations || p.failed() }

// Samples are the timed writes so far, in ns, unfiltered.
func (p *WriteProbe) Samples() []int64 { return p.samples }

// NextDeadline announces the next timed write; connecting is reaction to
// stack events.
func (p *WriteProbe) NextDeadline(now int64) int64 { return p.deadline(now, p.nextAt) }

// Step advances the probe.
func (p *WriteProbe) Step(api API, now int64) {
	switch {
	case p.Done():
	case !p.up:
		p.connect(api)
	case now >= p.nextAt:
		// The measured region: clock read, ff_write, clock read.
		t0 := p.clock()
		_, errno := api.Write(p.fd, p.payload)
		t1 := p.clock()
		if errno != hostos.EAGAIN {
			if !p.ok(errno) {
				return
			}
			p.samples = append(p.samples, t1-t0)
		}
		// The next write waits out the interval, and the thread's own
		// clock: a write that cost more than the interval defers it.
		p.nextAt = max(now+p.intervalNS, t1)
		if p.Done() {
			api.Close(p.fd)
			p.nextAt = math.MaxInt64
		}
	}
}

// Hammer is the second application of the contended Scenario 2: once
// started it connects to a sink and, every Step, offers it payloads for
// as long as the stack takes them. Each Step ends on a refused write, so
// between Steps it stands refused on the stack — the poll-mode caller
// that keeps coming back for the mutex. It is never done.
type Hammer struct {
	ffWriter
	started, refused bool
}

// NewHammer prepares a hammer toward the sink at ip:port writing payload
// bytes a call.
func NewHammer(ip fstack.IPv4Addr, port uint16, payload int) *Hammer {
	return &Hammer{ffWriter: newFFWriter(ip, port, payload)}
}

// Start lets the hammer loose; before it the hammer makes no call.
func (h *Hammer) Start() { h.started = true }

// Saturating reports that the stack has refused the hammer: its socket is
// full and it stands on the mutex (or it failed, which ends the wait too).
func (h *Hammer) Saturating() bool { return h.refused || h.failed() }

// NextDeadline: its first write after connecting is its own; room in the
// socket is a stack event.
func (h *Hammer) NextDeadline(now int64) int64 { return h.deadline(now, math.MaxInt64) }

// Step advances the hammer.
func (h *Hammer) Step(api API, now int64) {
	if h.failed() || !h.started {
		return
	}
	if !h.up {
		h.connect(api)
		return
	}
	h.wantStep = false
	for {
		// Until refused, not until a short write: the refusal is what
		// marks the hammer as standing on the stack.
		if _, errno := api.Write(h.fd, h.payload); errno == hostos.EAGAIN {
			h.refused = true
			return
		} else if !h.ok(errno) {
			return
		}
	}
}

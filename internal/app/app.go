package app

import (
	"math"
	"slices"

	"repro/internal/fstack"
	"repro/internal/hostos"
)

// API is the socket contract the workloads are written against,
// declared once as fstack.API; the alias keeps the name bench/ uses.
type API = fstack.API

const (
	// evBuf is sized past any reachable ready-set so one EpollWait
	// reports all of it: a truncated wait leaves the rest queued for the
	// next call, which would spread an instant's events over app steps
	// and move the virtual results the goldens pin.
	evBuf = 4096
	// maxOutstanding bounds an open-loop client's in-flight requests.
	// Past it, pace slots are counted as deferred instead of issued, so
	// an overloaded point reports honest backpressure instead of
	// growing queues without bound.
	maxOutstanding = 4096
)

// kit is what every endpoint embeds: its epoll descriptor and event
// buffer, and the two latches of the stepper contract. failure is the
// sticky errno: once set the endpoint makes no further API call and
// holds no deadline. wantStep is work this Step queued for the next
// one that no stack event announces (DESIGN.md §8).
type kit struct {
	epfd     int
	evs      []fstack.Event
	failure  hostos.Errno
	wantStep bool
}

// Err returns the sticky failure, if any.
func (k *kit) Err() hostos.Errno { return k.failure }

func (k *kit) failed() bool { return k.failure != hostos.OK }

// ok latches a failing errno; false means the endpoint is finished.
func (k *kit) ok(errno hostos.Errno) bool {
	if errno != hostos.OK {
		k.failure = errno
	}
	return errno == hostos.OK
}

// deadline is every NextDeadline: none once failed, now while a
// next-Step request is pending, else the endpoint's own timed work.
func (k *kit) deadline(now, timed int64) int64 {
	switch {
	case k.failed():
		return math.MaxInt64
	case k.wantStep:
		return now
	}
	return timed
}

// ctl changes fd's registration in the endpoint's epoll set.
func (k *kit) ctl(api API, op, fd int, events uint32) bool {
	return k.ok(api.EpollCtl(k.epfd, op, fd, events))
}

// dial starts a non-blocking TCP connect from sport (0 = the stack
// picks) watched for writability: the EPOLLOUT harvest reports is the
// handshake's completion.
func (k *kit) dial(api API, sport uint16, ip fstack.IPv4Addr, port uint16) (fd int, ok bool) {
	fd, errno := api.Socket(fstack.SockStream)
	if !k.ok(errno) {
		return fd, false
	}
	if sport != 0 && !k.ok(api.Bind(fd, fstack.IPv4Addr{}, sport)) {
		return fd, false
	}
	if !k.ctl(api, fstack.EpollCtlAdd, fd, fstack.EPOLLOUT) {
		return fd, false
	}
	if errno := api.Connect(fd, ip, port); errno != hostos.EINPROGRESS && !k.ok(errno) {
		return fd, false
	}
	return fd, true
}

// established is one harvest of a dial in progress: whether fd's
// handshake has completed. A refused one is latched.
func (k *kit) established(api API, fd int) bool {
	evs, _ := k.harvest(api)
	for _, ev := range evs {
		switch {
		case ev.FD != fd:
		case ev.Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0:
			k.ok(hostos.ECONNREFUSED)
			return false
		case ev.Events&fstack.EPOLLOUT != 0:
			return true
		}
	}
	return false
}

// listen opens a socket bound to ip:port and watched for readability:
// a listener for a stream socket, a bound datagram socket otherwise.
func (k *kit) listen(api API, typ int, ip fstack.IPv4Addr, port uint16, backlog int) (fd int, ok bool) {
	fd, errno := api.Socket(typ)
	if !k.ok(errno) || !k.ok(api.Bind(fd, ip, port)) {
		return fd, false
	}
	if typ == fstack.SockStream && !k.ok(api.Listen(fd, backlog)) {
		return fd, false
	}
	return fd, k.ctl(api, fstack.EpollCtlAdd, fd, fstack.EPOLLIN)
}

// harvest is one EpollWait, returned in descriptor order: EpollWait
// reports in wake order and the goldens pin descriptor order. A wait
// that filled the buffer may have left ready descriptors unreported;
// they are served on the next Step, which no stack event announces, so
// harvest asks for it.
func (k *kit) harvest(api API) (evs []fstack.Event, ok bool) {
	n, errno := api.EpollWait(k.epfd, k.evs)
	if !k.ok(errno) {
		return nil, false
	}
	k.wantStep = n == len(k.evs)
	slices.SortFunc(k.evs[:n], func(a, b fstack.Event) int { return a.FD - b.FD })
	return k.evs[:n], true
}

// sendq is one connection's head-indexed queue of bytes Write has not
// yet accepted, and whether EPOLLOUT is armed to resume it.
type sendq struct {
	tx      []byte
	txHead  int
	wantOut bool
}

// flush pushes q's pending bytes at fd until the stack stops taking
// them and keeps EPOLLOUT armed exactly while some remain. A Write
// error is the connection's, and returned; a failing EpollCtl is the
// endpoint's, and latched.
func (k *kit) flush(api API, fd int, q *sendq) hostos.Errno {
	for q.txHead < len(q.tx) {
		n, errno := api.Write(fd, q.tx[q.txHead:])
		if errno == hostos.EAGAIN {
			break
		}
		if errno != hostos.OK {
			return errno
		}
		q.txHead += n
	}
	drained := q.txHead == len(q.tx)
	if drained {
		q.tx, q.txHead = q.tx[:0], 0
	}
	if q.wantOut == drained {
		q.wantOut = !drained
		events := uint32(fstack.EPOLLIN)
		if !drained {
			events |= fstack.EPOLLOUT
		}
		k.ctl(api, fstack.EpollCtlMod, fd, events)
	}
	return hostos.OK
}

// pacer is an open-loop schedule: slot k (k = 1, 2, …) comes due
// k/rate seconds after start, and none at or after end. slot is the
// one formula behind both readings — due consumes the slots that have
// come due, next is the instant of the first that has not — so an
// endpoint's Step and NextDeadline cannot disagree about when there is
// work. rate 0 is a closed loop: no slots, only the end.
type pacer struct {
	rate       float64
	start, end int64
	n          uint64 // slots consumed: issued or deferred
	// deferred counts the slots that came due while the endpoint was at
	// its in-flight cap: consumed, never issued.
	deferred uint64
}

func (p *pacer) slot(k uint64) int64 { return p.start + int64(float64(k)/p.rate*1e9) }

// due consumes the slots that have come due by now and returns how
// many; the caller issues each or adds the rest to deferred.
func (p *pacer) due(now int64) (k uint64) {
	if p.rate <= 0 || now >= p.end {
		return 0
	}
	for p.slot(p.n+k+1) <= now {
		k++
	}
	p.n += k
	return k
}

// next is the instant the schedule needs a Step of its own: the first
// unconsumed slot or the end, whichever is sooner; none past the end
// (drains are event-driven).
func (p *pacer) next(now int64) int64 {
	switch {
	case now >= p.end:
		return math.MaxInt64
	case p.rate <= 0:
		return p.end
	}
	return min(p.slot(p.n+1), p.end)
}

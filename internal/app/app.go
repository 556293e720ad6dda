package app

import (
	"repro/internal/fstack"
	"repro/internal/hostos"
)

// API is the slice of the ff_* surface the application plane needs:
// churn.API plus the datagram calls. Stack.*, Loop.Locked() and
// ShardedStack.API() all satisfy it, so the same workload runs on
// every compartment layout.
type API interface {
	Socket(typ int) (int, hostos.Errno)
	Bind(fd int, ip fstack.IPv4Addr, port uint16) hostos.Errno
	Listen(fd, backlog int) hostos.Errno
	Accept(fd int) (int, fstack.IPv4Addr, uint16, hostos.Errno)
	Connect(fd int, ip fstack.IPv4Addr, port uint16) hostos.Errno
	Read(fd int, dst []byte) (int, hostos.Errno)
	Write(fd int, src []byte) (int, hostos.Errno)
	SendTo(fd int, data []byte, ip fstack.IPv4Addr, port uint16) (int, hostos.Errno)
	RecvFrom(fd int, dst []byte) (int, fstack.IPv4Addr, uint16, hostos.Errno)
	Close(fd int) hostos.Errno
	EpollCreate() int
	EpollCtl(epfd, op, fd int, events uint32) hostos.Errno
	EpollWait(epfd int, evs []fstack.Event) (int, hostos.Errno)
}

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

package app

import "repro/internal/fstack"

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

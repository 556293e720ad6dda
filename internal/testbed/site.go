package testbed

import "repro/internal/fstack"

// Site is one place application code runs: the socket API it sees there
// and the main loop that hosts it. A workload is written against
// fstack.API and a layout decides its sites, so moving an application
// across a compartment boundary is a different Site, not different
// driver code (DESIGN.md §6).
type Site struct {
	Name string
	API  fstack.API
	// Loop is the stack whose OnLoop callback runs the site's code, at
	// the end of each main-loop iteration. It is nil for code outside
	// every stack's compartment — an application cVM behind the API
	// gates, a user of a sharded stack's steering API — which the
	// experiment driver steps itself.
	Loop *fstack.Stack
	// Now is the clock read application code makes there: the
	// compartment's own, through whatever stands between it and the host.
	Now func() int64
}

// Site is application code inside the environment: in the loop callback
// of a single stack, or on a new steering view of a sharded one. A view
// carries one application driver's descriptors (the port and shard
// rotation is the stack's), so endpoints of one driver share one Site
// value: take it once.
func (e *Env) Site() Site {
	if e.Sharded != nil {
		return Site{Name: e.Name, API: e.Sharded.API(), Now: e.NowNS}
	}
	return Site{Name: e.Name, API: e.Stk, Loop: e.Stk, Now: e.NowNS}
}

// Site is application code on the link partner.
func (p *Peer) Site() Site { return p.Env.Site() }

// Site is the application cVM, calling the stack through its gates.
func (a *GatedAPI) Site() Site { return Site{Name: a.App.Name, API: a, Now: a.App.NowNS} }

// AppSites lists where the local box's applications run, environment by
// environment: in its application cVMs when the environment exports its
// API through gates, otherwise inside the environment itself.
func (b *Bed) AppSites() []Site {
	var out []Site
	for _, e := range b.Envs {
		if e != b.gatesEnv {
			out = append(out, e.Site())
			continue
		}
		for _, a := range b.Apps {
			out = append(out, a.Site())
		}
	}
	return out
}

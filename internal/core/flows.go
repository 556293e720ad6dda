package core

import (
	"fmt"

	"repro/internal/fstack"
	"repro/internal/iperf"
)

// The bulk-flow driver. The paper's method is one iperf benchmark
// re-run unchanged in every compartment layout; here that is one driver
// fed a list of flows, and a layout is nothing but where each flow's
// local endpoint is sited.

// bulkFlow is one iperf transfer between the local box and a peer.
type bulkFlow struct {
	// label names the flow in results and errors.
	label string
	// The local endpoint's site, exactly one of the two. env steps it
	// inside that environment's loop callback: the application lives in
	// the stack's compartment (Baseline, Scenarios 1, 3, 5, 7). api is a
	// view onto a stack the application does not live in — a gated app
	// cVM, the sharded stack's steering API — which the driver steps
	// after the loops.
	env *Env
	api iperf.API
	// peer carries the far endpoint, inside its loop callback.
	peer *Peer
	// port is the server's listen port.
	port uint16
	// upload makes the local endpoint the sender (iperf client); false
	// makes it the receiver.
	upload bool
	// srcPort, when non-zero, pins the sender's source port (iperf3's
	// --cport): load generators against RSS-sharded receivers engineer
	// source ports to cover every queue.
	srcPort uint16
}

// flowEnd is either iperf endpoint.
type flowEnd interface {
	endpoint
	Done() bool
	Step(api iperf.API, now int64)
	Report() iperf.Report
}

// newReceiver is the iperf server on every interface: the receiving end
// of each flow, and the byte sink of the latency probes.
func newReceiver(port uint16) *iperf.Server {
	return iperf.NewServer(fstack.IPv4Addr{}, port)
}

// ends creates the flow's two endpoints.
func (f bulkFlow) ends(durationNS int64) (local, remote flowEnd) {
	dst := localIP(f.peer.Port)
	if f.upload {
		dst = peerIP(f.peer.Port)
	}
	cli := iperf.NewClient(dst, f.port, durationNS)
	cli.LocalPort = f.srcPort
	if f.upload {
		return cli, newReceiver(f.port)
	}
	return newReceiver(f.port), cli
}

// flowReports are one finished flow's figures: the local endpoint's
// (what Table II tabulates) and the receiver's, behind whatever the
// path did to the data.
type flowReports struct{ local, recv iperf.Report }

// runFlows runs the flows concurrently for durationNS of virtual
// traffic time, within budgetNS, and returns their reports in flow
// order.
//
// The stepping-order rule: endpoints sharing a loop are stepped in flow
// order inside that loop's callback, and api-sited endpoints in flow
// order after all the loops. Frames leave a stack in the order its
// endpoints wrote, so flow order is wire order; the rule reproduces
// what each hand-written driver did (DESIGN.md §14).
func runFlows(bed *Setup, what string, flows []bulkFlow, durationNS, budgetNS int64) ([]flowReports, error) {
	if len(flows) == 0 {
		return nil, fmt.Errorf("core: %s needs at least one flow", what)
	}
	var ends []flowEnd // flow i's local and remote endpoints at 2i, 2i+1
	var steppers []func(now int64)
	var eps []labelled
	inLoop := map[*Env][]flowEnd{}
	for _, f := range flows {
		local, remote := f.ends(durationNS)
		var localLoop *fstack.Loop // nil: api-sited, stepped by the driver
		if f.api != nil {
			steppers = append(steppers, func(now int64) { local.Step(f.api, now) })
		} else {
			inLoop[f.env] = append(inLoop[f.env], local)
			localLoop = f.env.Loop
		}
		inLoop[f.peer.Env] = append(inLoop[f.peer.Env], remote)
		ends = append(ends, local, remote)
		eps = append(eps, labelled{f.label + " (local)", local, localLoop}, labelled{f.label + " (peer)", remote, f.peer.Env.Loop})
	}
	for env, here := range inLoop {
		var api iperf.API = env.Loop.Locked()
		env.Loop.OnLoop = func(now int64) bool {
			for _, e := range here {
				e.Step(api, now)
			}
			return true
		}
	}
	if err := measure(bed, what, steppers, eps, phase{budgetNS: budgetNS, done: allDone(ends)}); err != nil {
		return nil, err
	}
	out := make([]flowReports, len(flows))
	for i, f := range flows {
		local, remote := ends[2*i].Report(), ends[2*i+1].Report()
		out[i] = flowReports{local: local, recv: remote}
		if !f.upload {
			out[i].recv = local
		}
	}
	return out, nil
}

// shardedFlows lists n flows between the sharded stack's steering
// API and the bed's one peer, flow f on basePort+f. Uploads send from
// the local shards: the steering oracle places each connection on the
// shard its ACK stream will hit. Downloads send from the peer into
// listeners cloned across every shard, each SYN accepted wherever RSS
// lands it; the load generator engineers its source ports so the flows
// round-robin the receiver's queues, as hardware traffic generators
// (and RSS-aware client fleets) do — unengineered ports land wherever
// the hash scatters them.
func shardedFlows(s *Setup, n int, basePort uint16, upload bool) []bulkFlow {
	if n < 1 {
		return nil
	}
	api := s.Sharded.API()
	flows := make([]bulkFlow, n)
	for f := range flows {
		port := basePort + uint16(f)
		flows[f] = bulkFlow{label: fmt.Sprintf("flow %d", f), api: api, peer: s.Peers[0], port: port, upload: upload}
		if !upload {
			flows[f].srcPort = engineerCport(s, f, port)
		}
	}
	return flows
}

// engineerCport picks a source port for inbound flow f toward dport so
// that its tuple hashes to shard f modulo the shard count.
func engineerCport(s *Setup, f int, dport uint16) uint16 {
	want := f % s.Sharded.NumShards()
	p := uint16(42000 + 97*f)
	for try := 0; try < 2048; try++ {
		if s.Dev.RxQueueOf(peerIP(0), localIP(0), fstack.ProtoTCP, p, dport) == want {
			return p
		}
		p++
	}
	return uint16(42000 + 97*f)
}

// wanUpload is the one flow of the single-flow WAN scenarios (5, 7):
// the local box, application inside the stack's compartment, uploads
// to the peer through the impaired link.
func wanUpload(bed *Setup, port uint16) []bulkFlow {
	return []bulkFlow{{label: "flow", env: bed.Envs[0], peer: bed.Peers[0], port: port, upload: true}}
}

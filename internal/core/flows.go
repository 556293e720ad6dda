package core

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/fstack"
	"repro/internal/testbed"
)

// The bulk-flow driver. The paper's method is one iperf benchmark
// re-run unchanged in every compartment layout; here that is one driver
// fed a list of flows, and a layout is nothing but where each flow's
// local endpoint is sited.

// bulkFlow is one iperf transfer between the local box and a peer.
type bulkFlow struct {
	// label names the flow in results and errors.
	label string
	// local is where the local endpoint runs: inside the stack's
	// compartment (Baseline, Scenarios 1, 3, 5, 7), in an app cVM behind
	// the API gates, or on the sharded stack's steering API.
	local testbed.Site
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

// newReceiver is the iperf server on every interface: the receiving end
// of each flow, and the byte sink of the latency probes.
func newReceiver(port uint16) *app.IperfServer {
	return app.NewIperfServer(fstack.IPv4Addr{}, port)
}

// flowReports are one finished flow's figures: the local endpoint's
// (what Table II tabulates) and the receiver's, behind whatever the
// path did to the data.
type flowReports struct{ local, recv app.Report }

// runFlows runs the flows concurrently for durationNS of virtual
// traffic time, within budgetNS, and returns their reports in flow
// order. Endpoints are placed in flow order, local before remote, so
// flow order is wire order (place has the stepping-order rule).
func runFlows(bed *Setup, what string, flows []bulkFlow, durationNS, budgetNS int64) ([]flowReports, error) {
	if len(flows) == 0 {
		return nil, fmt.Errorf("core: %s needs at least one flow", what)
	}
	clis := make([]*app.IperfClient, len(flows))
	srvs := make([]*app.IperfServer, len(flows))
	var eps []placed
	for i, f := range flows {
		dst := localIP(f.peer.Port)
		if f.upload {
			dst = peerIP(f.peer.Port)
		}
		clis[i], srvs[i] = app.NewIperfClient(dst, f.port, durationNS), newReceiver(f.port)
		clis[i].LocalPort = f.srcPort
		var local, remote endpoint = srvs[i], clis[i]
		if f.upload {
			local, remote = remote, local
		}
		eps = append(eps, placed{f.label + " (local)", f.local, local}, placed{f.label + " (peer)", f.peer.Site(), remote})
	}
	sent, received := allDone(clis), allDone(srvs)
	done := func() bool { return sent() && received() }
	if err := measure(bed, what, eps, phase{budgetNS: budgetNS, done: done}); err != nil {
		return nil, err
	}
	out := make([]flowReports, len(flows))
	for i, f := range flows {
		recv := srvs[i].Report()
		out[i] = flowReports{local: recv, recv: recv}
		if f.upload {
			out[i].local = clis[i].Report()
		}
	}
	return out, nil
}

// tableFlows lists Table II's flows for a bed: one per application
// site. Site i faces peer i modulo the peer count — a bed has either one
// peer per environment, each environment owning a port, or one peer for
// every app cVM of its single stack — and the flows that share a peer
// take successive TCP ports.
func tableFlows(s *Setup, upload bool) []bulkFlow {
	var flows []bulkFlow
	for i, site := range s.AppSites() {
		flows = append(flows, bulkFlow{
			label: site.Name, local: site, upload: upload,
			peer: s.Peers[i%len(s.Peers)], port: iperfPort + uint16(i/len(s.Peers)),
		})
	}
	return flows
}

// shardedFlows lists n flows between the bed's one application site — a
// sharded stack's steering API, or the app cVM in front of it — and its
// one peer, flow f on basePort+f. Uploads send from
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
	site := s.AppSites()[0]
	flows := make([]bulkFlow, n)
	for f := range flows {
		port := basePort + uint16(f)
		flows[f] = bulkFlow{label: fmt.Sprintf("flow %d", f), local: site, peer: s.Peers[0], port: port, upload: upload}
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
	return []bulkFlow{{label: "flow", local: bed.AppSites()[0], peer: bed.Peers[0], port: port, upload: true}}
}

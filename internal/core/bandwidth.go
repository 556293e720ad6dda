package core

import "fmt"

// Direction selects which side of the link the local box plays, as in
// Table II's "Server" (receiver) and "Client" (sender) columns.
type Direction int

const (
	// LocalIsServer: the Morello box receives; the link partners send.
	LocalIsServer Direction = iota
	// LocalIsClient: the Morello box sends; the link partners receive.
	LocalIsClient
)

// String names the direction Table II-style.
func (d Direction) String() string {
	if d == LocalIsServer {
		return "Server"
	}
	return "Client"
}

// BWResult is one Table II cell pair: the goodput one endpoint achieved.
type BWResult struct {
	Label      string
	Mbps       float64
	Efficiency float64 // vs the 1 Gbit/s port
}

// String formats the row.
func (r BWResult) String() string {
	return fmt.Sprintf("%-24s %5.0f Mbit/s  %5.1f%%", r.Label, r.Mbps, r.Efficiency*100)
}

// bandwidth run parameters.
const (
	// bwDuration is the per-measurement traffic time. Sender-side
	// accounting includes the residual socket buffer (it is counted when
	// written, as in iperf3), which inflates the client figure by
	// ~sndbuf/duration — 1 s keeps that under ~4 Mbit/s.
	bwDuration = 1_000e6
	bwDeadline = 4_000e6 // hard stop (virtual ns)
	iperfPort  = uint16(5201)
)

// BandwidthPair measures one (setup, direction) combination with one
// connection per local environment or app compartment, and returns the
// local-side goodput per endpoint (which is what Table II tabulates).
//
// In LocalIsServer mode the local endpoints run iperf servers and the
// remote partners run clients; in LocalIsClient mode the roles flip.
func BandwidthPair(s *Setup, dir Direction) ([]BWResult, error) {
	flows := tableFlows(s, dir == LocalIsClient)
	reps, err := runFlows(s, "bandwidth", flows, bwDuration, bwDeadline)
	if err != nil {
		return nil, err
	}
	out := make([]BWResult, len(reps))
	for i, rep := range reps {
		out[i] = BWResult{
			Label:      fmt.Sprintf("%s %s", flows[i].label, dir),
			Mbps:       rep.local.Mbps(),
			Efficiency: rep.local.Efficiency(1000),
		}
	}
	return out, nil
}

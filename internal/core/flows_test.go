package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/iperf"
	"repro/internal/sim"
)

// recAPI notes which party the driver is stepping whenever an iperf
// server steps through it (every server Step opens with one of these
// three calls).
type recAPI struct {
	iperf.API
	who  string
	note func(who string)
}

func (r recAPI) Socket(typ int) (int, hostos.Errno) { r.note(r.who); return r.API.Socket(typ) }
func (r recAPI) Read(fd int, dst []byte) (int, hostos.Errno) {
	r.note(r.who)
	return r.API.Read(fd, dst)
}
func (r recAPI) EpollWait(epfd int, evs []fstack.Event) (int, hostos.Errno) {
	r.note(r.who)
	return r.API.EpollWait(epfd, evs)
}

// synTap notes every frame the peer stack moves (which happens inside
// the peer loop's step) and the destination ports of the SYNs it sends.
type synTap struct {
	note func(who string)
	syns []uint16
}

func (s *synTap) Frame(dir fstack.TapDir, _ int64, data []byte) {
	s.note("peer loop")
	if eth, err := fstack.ParseEthHeader(data); err != nil || eth.Type != fstack.EtherTypeIPv4 || dir != fstack.TapTx {
		return
	}
	ip, ihl, err := fstack.ParseIPv4Header(data[fstack.EthHeaderLen:])
	if err != nil || ip.Proto != fstack.ProtoTCP {
		return
	}
	if tcp, _, err := fstack.ParseTCPHeader(data[fstack.EthHeaderLen+ihl:], ip.Src, ip.Dst); err == nil && tcp.Flags == fstack.TCPSyn {
		s.syns = append(s.syns, tcp.DstPort)
	}
}

// TestRunFlowsSteppingOrder checks the driver's stepping-order rule on
// contended Scenario 2 in server mode — two api-sited flows whose far
// ends share the one peer loop: within every driver iteration the loops
// run first, then the api-sited endpoints in flow order; and the peer
// loop steps its two endpoints in flow order, so flow 0's SYN is on the
// wire before flow 1's.
func TestRunFlowsSteppingOrder(t *testing.T) {
	s, err := NewScenario2(sim.NewVClock(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// The log keeps one entry per party per turn: consecutive notes by
	// the same party collapse. It opens with the mark that separates
	// iterations.
	log := []string{"iteration"}
	note := func(who string) {
		if log[len(log)-1] != who {
			log = append(log, who)
		}
	}
	// The driver's visit hook fires once per iteration, after its loops
	// and steppers: every mark closes one iteration and opens the next.
	// (A loop's OnLoop would not do: a loop that is not due is skipped.)
	visitHook = func(int64, bool) { note("iteration") }
	defer func() { visitHook = nil }()
	tap := &synTap{note: note}
	s.Peers[0].Env.Stk.SetTap(tap)
	var flows []bulkFlow
	for i, app := range s.Apps {
		who := []string{"app 0", "app 1"}[i]
		flows = append(flows, bulkFlow{label: who, api: recAPI{app, who, note}, peer: s.Peers[0], port: iperfPort + uint16(i)})
	}
	if _, err := runFlows(s, "stepping order", flows, 10e6, bwDeadline); err != nil {
		t.Fatal(err)
	}

	if want := []uint16{iperfPort, iperfPort + 1}; !slices.Equal(tap.syns, want) {
		t.Errorf("SYNs left the peer toward ports %v, want flow order %v", tap.syns, want)
	}
	rank := map[string]int{"iteration": 0, "peer loop": 1, "app 0": 2, "app 1": 3}
	both := 0
	for i := 1; i < len(log); i++ {
		if log[i] != "iteration" && rank[log[i]] <= rank[log[i-1]] {
			t.Fatalf("entry %d: %q stepped after %q within one iteration", i, log[i], log[i-1])
		}
		if log[i] == "app 1" && log[i-1] == "app 0" {
			both++
		}
	}
	if both < 100 {
		t.Fatalf("only %d iterations stepped both api-sited endpoints; the run did not exercise the rule", both)
	}
}

// TestMeasureRejectsForeignLoop: an endpoint that names a loop the bed
// does not run would be taken for a driver stepper, and its deadline
// would never make its own loop due; the run must refuse it by label
// instead of delivering a late frame.
func TestMeasureRejectsForeignLoop(t *testing.T) {
	s, err := NewScenario1(sim.NewVClock())
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewScenario1(sim.NewVClock())
	if err != nil {
		t.Fatal(err)
	}
	eps := []labelled{{"stray sink", newReceiver(iperfPort), other.Envs[0].Loop}}
	err = measure(s, "misattributed", nil, eps, phase{budgetNS: 1e6, done: func() bool { return false }})
	if err == nil || !strings.Contains(err.Error(), "stray sink") {
		t.Fatalf("measure with an endpoint in another bed's loop: error %v, want one naming the endpoint", err)
	}
}

package core

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// recAPI notes which party the driver is stepping whenever an iperf
// server steps through it (every server Step opens with one of these
// three calls).
type recAPI struct {
	fstack.API
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

// synTap sits on the local port the peer's cable delivers to: it notes
// every frame the peer sends (which reaches the wire inside the peer
// loop's step) and the destination ports of the SYNs among them.
type synTap struct {
	note func(who string)
	syns []uint16
}

func (s *synTap) frame(_ int64, data []byte) {
	s.note("peer loop")
	if eth, err := fstack.ParseEthHeader(data); err != nil || eth.Type != fstack.EtherTypeIPv4 {
		return
	}
	ip, ihl, err := fstack.ParseIPv4Header(data[fstack.EthHeaderLen:])
	if err != nil || ip.Proto != fstack.ProtoTCP {
		return
	}
	if seg := data[fstack.EthHeaderLen+ihl:]; len(seg) >= fstack.TCPHeaderLen && seg[13] == fstack.TCPSyn {
		s.syns = append(s.syns, binary.BigEndian.Uint16(seg[2:4]))
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
	s.Local.Card.Port(s.Peers[0].Port).SetRxTap(tap.frame)
	var flows []bulkFlow
	for i, site := range s.AppSites() {
		who := []string{"app 0", "app 1"}[i]
		site.API = recAPI{site.API, who, note}
		flows = append(flows, bulkFlow{label: who, local: site, peer: s.Peers[0], port: iperfPort + uint16(i)})
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

// TestMeasureRejectsForeignLoop: an endpoint placed on a site of another
// bed names a loop this bed does not run, so its deadline would never
// make its own loop due; the run must refuse it by label instead of
// delivering a late frame.
func TestMeasureRejectsForeignLoop(t *testing.T) {
	s, err := NewScenario1(sim.NewVClock())
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewScenario1(sim.NewVClock())
	if err != nil {
		t.Fatal(err)
	}
	eps := []placed{{"stray sink", other.Envs[0].Site(), newReceiver(iperfPort)}}
	err = measure(s, "misattributed", eps, phase{budgetNS: 1e6, done: func() bool { return false }})
	if err == nil || !strings.Contains(err.Error(), "stray sink") {
		t.Fatalf("measure with an endpoint on another bed's site: error %v, want one naming the endpoint", err)
	}
}

// probe is a scripted endpoint: it logs every Step and is due at one
// instant of its own.
type probe struct {
	name  string
	log   *[]string
	at    int64 // own deadline; never again once stepped there
	steps []int64
	api   fstack.API
}

func (p *probe) Step(api fstack.API, now int64) {
	*p.log = append(*p.log, p.name)
	p.steps, p.api = append(p.steps, now), api
	if now >= p.at {
		p.at = math.MaxInt64
	}
}
func (p *probe) NextDeadline(int64) int64 { return p.at }
func (p *probe) Err() hostos.Errno        { return hostos.OK }

// TestMeasurePlacesMixedSites puts endpoints on all three kinds of site
// in one run — inside an environment, in an app cVM behind the API
// gates, on a peer — over an otherwise silent bed. Placement alone must
// yield the stepping order (loops in bed order, each stepping its
// endpoints in placement order with its site's API, then the loop-less
// site) and the deadline mapping: an endpoint's deadline makes its own
// loop due and no other, and the driver-stepped endpoint runs at every
// visited instant.
func TestMeasurePlacesMixedSites(t *testing.T) {
	s, err := testbed.Build(testbed.Spec{
		Clk:     sim.NewVClock(),
		Machine: testbed.MachineSpec{Name: "morello", Ports: 2},
		Compartments: []testbed.CompartmentSpec{
			{Name: "cvm1", CVM: true, Ifs: []testbed.IfSpec{{Port: 0}}, APIGate: true, AppCVMs: []string{"app1"}},
			{Name: "cvm2", CVM: true, Ifs: []testbed.IfSpec{{Port: 1}}},
		},
		Peers: []testbed.PeerSpec{{Port: 0}, {Port: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := s.AppSites()
	if len(sites) != 2 || sites[0].Name != "app1" || sites[0].Loop != nil || sites[1].Loop != s.Envs[1].Stk {
		t.Fatalf("application sites %+v, want app cVM app1 (driver-stepped), then cvm2 in its own loop", sites)
	}
	var log []string
	const ms = int64(1e6)
	app := &probe{name: "app", log: &log, at: 3 * ms}
	env1 := &probe{name: "env 1", log: &log, at: 1 * ms}
	env2 := &probe{name: "env 2", log: &log, at: math.MaxInt64}
	peer := &probe{name: "peer", log: &log, at: 2 * ms}
	// The app cVM's endpoint is placed first and still steps last.
	eps := []placed{
		{"app", sites[0], app},
		{"env 1", sites[1], env1},
		{"peer", s.Peers[0].Site(), peer},
		{"env 2", sites[1], env2},
	}
	err = measure(s, "placement", eps, phase{budgetNS: 10 * ms, done: func() bool { return app.at == math.MaxInt64 }})
	if err != nil {
		t.Fatal(err)
	}
	// Loops run in bed order: cvm1 (nothing placed), cvm2, the peers.
	if want := []string{"env 1", "env 2", "peer", "app"}; !slices.Equal(log[:4], want) {
		t.Errorf("first instant stepped %v, want %v", log[:4], want)
	}
	for _, c := range []struct {
		p    *probe
		want []int64
		api  fstack.API
	}{
		{env1, []int64{0, 1 * ms}, s.Envs[1].Stk},
		{env2, []int64{0, 1 * ms}, s.Envs[1].Stk},
		{peer, []int64{0, 2 * ms}, s.Peers[0].Env.Stk},
		{app, []int64{0, 1 * ms, 2 * ms, 3 * ms}, s.Apps[0]},
	} {
		if !slices.Equal(c.p.steps, c.want) {
			t.Errorf("%s stepped at %v, want %v", c.p.name, c.p.steps, c.want)
		}
		if c.p.api != c.api {
			t.Errorf("%s stepped with %T, want its site's %T", c.p.name, c.p.api, c.api)
		}
	}
}

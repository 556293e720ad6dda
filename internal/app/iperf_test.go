package app_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
)

func TestReportMath(t *testing.T) {
	r := app.Report{Bytes: 125_000_000, StartNS: 0, EndNS: 2e9}
	if got := r.Mbps(); got < 499 || got > 501 {
		t.Fatalf("rate %.1f", got)
	}
	if (app.Report{Bytes: 1}).Mbps() != 0 {
		t.Fatal("degenerate report")
	}
	if e := r.Efficiency(1000); e < 0.499 || e > 0.501 {
		t.Fatalf("efficiency %.3f", e)
	}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}

// TestIperfClientServerOverStack runs a full iperf pair over the simulated
// network in virtual time.
func TestIperfClientServerOverStack(t *testing.T) {
	clk := sim.NewVClock()
	s, err := core.NewBaselineSingle(clk)
	if err != nil {
		t.Fatal(err)
	}
	srv := app.NewIperfServer(fstack.IPv4Addr{}, 5201)
	// Server runs on the peer, client on the local box.
	papi := s.Peers[0].Env.Stk
	s.Peers[0].Env.Stk.OnLoop = func(now int64) { srv.Step(papi, now) }
	cli := app.NewIperfClient(fstack.IP4(10, 0, 0, 2), 5201, 100e6 /* 100 ms */)
	lapi := s.Envs[0].Stk
	s.Envs[0].Stk.OnLoop = func(now int64) { cli.Step(lapi, now) }
	loops := s.Loops()
	for i := 0; i < 200_000 && !(cli.Done() && srv.Done()); i++ {
		for _, l := range loops {
			l.RunOnce()
		}
		clk.Advance(5000)
	}
	if !cli.Done() || !srv.Done() {
		t.Fatal("run did not converge")
	}
	if cli.Err() != hostos.OK || srv.Err() != hostos.OK {
		t.Fatalf("errors: cli=%v srv=%v", cli.Err(), srv.Err())
	}
	cr, sr := cli.Report(), srv.Report()
	if sr.Bytes == 0 || cr.Bytes < sr.Bytes {
		t.Fatalf("byte accounting: client %d server %d", cr.Bytes, sr.Bytes)
	}
	if sr.Mbps() < 850 || sr.Mbps() > 950 {
		t.Fatalf("server rate %.0f Mbit/s, want near line rate", sr.Mbps())
	}
	if cr.EndNS-cr.StartNS != 100e6 {
		t.Fatalf("client ran %d ns, want its 100 ms duration", cr.EndNS-cr.StartNS)
	}
}

// TestIperfClientConnectionRefused checks failure reporting when no server
// listens.
func TestIperfClientConnectionRefused(t *testing.T) {
	clk := sim.NewVClock()
	s, err := core.NewBaselineSingle(clk)
	if err != nil {
		t.Fatal(err)
	}
	cli := app.NewIperfClient(fstack.IP4(10, 0, 0, 2), 9999, 50e6)
	lapi := s.Envs[0].Stk
	s.Envs[0].Stk.OnLoop = func(now int64) { cli.Step(lapi, now) }
	loops := s.Loops()
	for i := 0; i < 100_000 && !cli.Done(); i++ {
		for _, l := range loops {
			l.RunOnce()
		}
		clk.Advance(5000)
	}
	if !cli.Done() {
		t.Fatal("client never finished")
	}
	if cli.Err() == hostos.OK {
		t.Fatal("client should have failed against a closed port")
	}
}

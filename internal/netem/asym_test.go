// Per-direction (asymmetric) link tests. They live in an external test
// package so the TCP-level assertions can build a full topology through
// internal/testbed, which itself imports netem.
package netem_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/fstack"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// collector is a frame sink endpoint recording delivery instants.
type collector struct {
	frames int
	lastAt int64
}

func (c *collector) DeliverFrame(data []byte, readyAt int64) {
	c.frames++
	c.lastAt = readyAt
}

// TestAsymmetricLossIsDirectional: loss configured on the a-to-b
// direction only must destroy a-to-b frames at the configured rate and
// deliver every b-to-a frame untouched.
func TestAsymmetricLossIsDirectional(t *testing.T) {
	clk := sim.NewVClock()
	a, b := &collector{}, &collector{}
	l := netem.NewAsym(clk, a, b,
		netem.Config{Seed: 7, LossRate: 0.3},
		netem.Config{}) // reverse pristine
	const n = 4000
	payload := make([]byte, 100)
	for i := 0; i < n; i++ {
		l.Send(0, payload, clk.Now())
		l.Send(1, payload, clk.Now())
		clk.Advance(10_000)
	}
	fwd, rev := l.Stats(0), l.Stats(1)
	if rev.Lost() != 0 || b.frames == n {
		t.Fatalf("asymmetry broken: fwd lost %d (b got %d), rev lost %d (a got %d)",
			fwd.Lost(), b.frames, rev.Lost(), a.frames)
	}
	if a.frames != n {
		t.Fatalf("pristine reverse dropped frames: %d of %d delivered", a.frames, n)
	}
	rate := float64(fwd.Lost()) / n
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("forward loss rate %.3f, want ≈0.30", rate)
	}
}

// TestAsymmetricDelayIsDirectional: a delay configured on the reverse
// direction only must postpone reverse deliveries and leave forward
// timing untouched.
func TestAsymmetricDelayIsDirectional(t *testing.T) {
	clk := sim.NewVClock()
	a, b := &collector{}, &collector{}
	const delay = int64(3e6)
	l := netem.NewAsym(clk, a, b,
		netem.Config{},
		netem.Config{DelayNS: delay})
	clk.Advance(1000)
	now := clk.Now()
	l.Send(0, make([]byte, 100), now)
	l.Send(1, make([]byte, 100), now)
	if b.frames != 1 || b.lastAt != now {
		t.Fatalf("pristine forward frame not delivered instantly (got %d at %d, want at %d)", b.frames, b.lastAt, now)
	}
	if a.frames != 0 {
		t.Fatal("delayed reverse frame delivered early")
	}
	clk.Advance(delay)
	l.Pump(clk.Now())
	if a.frames != 1 || a.lastAt != now+delay {
		t.Fatalf("reverse frame at %d (delivered=%d), want %d", a.lastAt, a.frames, now+delay)
	}
}

// runForwardTransfer builds a minimal topology through the testbed spec
// layer — one process, one peer, the given per-direction link — and
// drives a single 200 ms iperf transfer toward the peer, returning the
// receiver-side goodput in Mbit/s.
func runForwardTransfer(t *testing.T, link *testbed.LinkSpec) float64 {
	t.Helper()
	clk := sim.NewVClock()
	// WAN RTTs need a WAN RTO floor, or queue-induced RTT bumps fire
	// spurious timeouts.
	wan := testbed.StackSpec{Tuning: &fstack.TCPTuning{RTOMinNS: 200e6}}
	bed, err := testbed.Build(testbed.Spec{
		Clk:     clk,
		Machine: testbed.MachineSpec{Name: "morello", Ports: 1},
		Compartments: []testbed.CompartmentSpec{
			{Name: "proc", Ifs: []testbed.IfSpec{{Port: 0}}, Stack: wan},
		},
		Peers: []testbed.PeerSpec{{Port: 0, Link: link, Stack: wan}},
	})
	if err != nil {
		t.Fatal(err)
	}

	const port = 5601
	cli := app.NewIperfClient(testbed.PeerIP(0), port, 200e6)
	api := bed.Envs[0].Stk
	bed.Envs[0].Stk.OnLoop = func(now int64) { cli.Step(api, now) }
	srv := app.NewIperfServer(fstack.IPv4Addr{}, port)
	papi := bed.Peers[0].Env.Stk
	bed.Peers[0].Env.Stk.OnLoop = func(now int64) { srv.Step(papi, now) }

	loops := bed.Loops()
	for i := 0; i < 2_000_000 && !(cli.Done() && srv.Done()); i++ {
		for _, l := range loops {
			l.RunOnce()
		}
		clk.Advance(5000)
	}
	if !cli.Done() || !srv.Done() {
		t.Fatal("transfer did not finish")
	}
	if cli.Err() != 0 || srv.Err() != 0 {
		t.Fatalf("transfer failed: cli %v, srv %v", cli.Err(), srv.Err())
	}
	return srv.Report().Mbps()
}

// TestReverseDelayThrottlesForwardGoodput is the impaired-ACK-path
// assertion: inflating only the reverse direction's delay stretches the
// RTT the forward window must cover, so forward goodput drops, even
// though the data direction's config is untouched.
func TestReverseDelayThrottlesForwardGoodput(t *testing.T) {
	fwd := netem.Config{RateBps: 100e6, DelayNS: 5e6}
	fast := runForwardTransfer(t, &testbed.LinkSpec{
		ToPeer:  fwd,
		ToLocal: netem.Config{DelayNS: 5e6},
	})
	slow := runForwardTransfer(t, &testbed.LinkSpec{
		ToPeer:  fwd,
		ToLocal: netem.Config{DelayNS: 45e6},
	})
	t.Logf("10 ms RTT: %.1f Mbit/s; 50 ms RTT via ACK path alone: %.1f Mbit/s", fast, slow)
	// 64 KiB windows cap at ~52 Mbit/s over 10 ms and ~10.5 over 50 ms.
	if slow > fast/3 {
		t.Fatalf("reverse-path delay did not throttle: %.1f vs %.1f Mbit/s", slow, fast)
	}
	if slow < 5 || fast < 30 {
		t.Fatalf("goodput implausibly low: %.1f / %.1f Mbit/s", slow, fast)
	}
}

// TestReverseRateThrottlesForwardGoodput squeezes only the ACK
// channel's rate: a 200 kbit/s reverse bottleneck with a shallow queue
// delays and thins the ACK clock until the forward window starves,
// far below the clean-reverse run.
func TestReverseRateThrottlesForwardGoodput(t *testing.T) {
	fwd := netem.Config{RateBps: 100e6, DelayNS: 5e6}
	clean := runForwardTransfer(t, &testbed.LinkSpec{
		ToPeer:  fwd,
		ToLocal: netem.Config{DelayNS: 5e6},
	})
	squeezed := runForwardTransfer(t, &testbed.LinkSpec{
		ToPeer:  fwd,
		ToLocal: netem.Config{DelayNS: 5e6, RateBps: 200e3, QueueBytes: 8 << 10},
	})
	t.Logf("clean ACK path: %.1f Mbit/s; 200 kbit/s ACK path: %.1f Mbit/s", clean, squeezed)
	if squeezed > clean/2 {
		t.Fatalf("reverse-path rate limit did not throttle: %.1f vs %.1f Mbit/s", squeezed, clean)
	}
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/app"
	"repro/internal/cheri"
	"repro/internal/core"
	"repro/internal/dpdk"
	"repro/internal/fstack"
	"repro/internal/fstack/connscale"
	"repro/internal/hostos"
	"repro/internal/intravisor"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Layer probes: fixed-count spans around calls into one layer's
// exported functions. Each probe asserts its op count from the layer's
// own counters, so ns/op divides by work done, not by ticks polled, and
// a probe whose count disagrees fails instead of reporting a number.

// probeSet accumulates probe results by per-layer metric name.
type probeSet map[string]metric

// span runs fn (n ops) reps times and returns the median ns/op and the
// last rep's heap allocations per op.
func span(n, reps int, fn func() error) (nsPerOp, allocsPerOp float64, err error) {
	var ds []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		ds = append(ds, float64(time.Since(t0).Nanoseconds()))
		runtime.ReadMemStats(&m1)
		allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	_, med, _ := quartiles(ds)
	return med / float64(n), allocsPerOp, nil
}

// allocFree fails a probe that is pinned allocation-free in its warm
// state. A handful of allocations in the whole span (the runtime's own,
// a ring or map growing once) is not the datapath allocating per op.
func allocFree(name string, allocsPerOp float64, n int) error {
	if allocsPerOp*float64(n) > 16 && allocsPerOp >= 0.01 {
		return fmt.Errorf("probe %s: %.3f allocs/op in warm state, want none", name, allocsPerOp)
	}
	return nil
}

func countErr(name string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("probe %s: layer counted %d ops, probe issued %d", name, got, want)
	}
	return nil
}

// runProbes runs every probe; quick shrinks the op counts.
func runProbes(quick bool) (probeSet, error) {
	scale := 1
	reps := 3
	if quick {
		scale, reps = 20, 1
	}
	ps := probeSet{}
	for _, p := range []func(probeSet, int, int) error{
		probeSerializer, probeNetem, probeDPDK, probeTCPFrame, probeConnCycle, probeUDP,
		probeIdle, probeWheel, probeGates, probeCheri, probeApp, probeStatsObs, probeBuild,
	} {
		if err := p(ps, scale, reps); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

func (ps probeSet) ns(name string, v float64)     { ps[name] = metric{v, "ns"} }
func (ps probeSet) allocs(name string, v float64) { ps[name] = metric{v, "allocs"} }

const frameLen = 1514

func probeSerializer(ps probeSet, scale, reps int) error {
	n := 200000 / scale
	clk := sim.NewVClock()
	s := sim.NewSerializer(clk, 1e9, 30000)
	var last int64
	ns, _, err := span(n, reps, func() error {
		start := clk.Now()
		for i := 0; i < n; i++ {
			done, ok := s.Admit(frameLen)
			if !ok {
				return fmt.Errorf("probe sim.serializer: admission refused at op %d", i)
			}
			clk.Set(done)
			last = done
		}
		// The serializer's own booking is the op count: n frames of
		// line time were admitted.
		if want := int64(n) * int64(float64(frameLen*8)/1e9*1e9); last-start != want {
			return fmt.Errorf("probe sim.serializer: booked %d ns, want %d", last-start, want)
		}
		return nil
	})
	ps.ns("sim.serializer_admit_ns", ns)
	return err
}

// sink is a stub netem.Endpoint that counts and releases what arrives.
type sink struct{ frames uint64 }

func (s *sink) DeliverFrame(data []byte, _ int64) {
	s.frames++
	nic.FreeFrame(data)
}

func probeNetem(ps probeSet, scale, reps int) error {
	n := 40000 / scale
	clk := sim.NewVClock()
	a, b := &sink{}, &sink{}
	// Shaped, delayed and bursty, as the WAN workload's links are.
	link := netem.New(clk, a, b, netem.Config{Seed: 7, RateBps: 1e9, QueueBytes: 1 << 20,
		DelayNS: 1e6, GEBadProb: 0.0003, GERecoverProb: 0.03})
	frameNS := int64((frameLen + 24) * 8)
	ns, allocs, err := span(n, reps, func() error {
		before, got0 := link.Stats(0), b.frames
		for i := 0; i < n; i++ {
			now := clk.Now()
			link.Send(0, nic.AllocFrame(frameLen), now)
			clk.Advance(frameNS)
			link.Pump(clk.Now())
		}
		clk.Advance(2e6)
		link.Pump(clk.Now())
		st := link.Stats(0)
		if err := countErr("netem.frame", st.Sent-before.Sent, uint64(n)); err != nil {
			return err
		}
		delivered := st.Delivered - before.Delivered
		if lost := st.Lost() - before.Lost(); delivered+lost != uint64(n) {
			return fmt.Errorf("probe netem.frame: delivered %d + lost %d != sent %d", delivered, lost, n)
		}
		return countErr("netem.frame (endpoint)", b.frames-got0, delivered)
	})
	ps.ns("netem.frame_ns", ns)
	ps.allocs("netem.frame_allocs", allocs)
	return err
}

// probeBed is the minimal two-machine bed the device and stack probes
// share: one Baseline compartment, one peer, an ideal 1 Gbit/s wire.
func probeBed() (*testbed.Bed, *sim.VClock, error) {
	clk := sim.NewVClock()
	bed, err := testbed.Build(testbed.Spec{
		Clk:          clk,
		Machine:      testbed.MachineSpec{Name: "probe", Ports: 1},
		Compartments: []testbed.CompartmentSpec{{Name: "a", Ifs: []testbed.IfSpec{{Port: 0}}}},
		Peers:        []testbed.PeerSpec{{Port: 0}},
	})
	return bed, clk, err
}

func probeDPDK(ps probeSet, scale, reps int) error {
	n := 40000 / scale
	bed, clk, err := probeBed()
	if err != nil {
		return err
	}
	dev, pool, port := bed.Envs[0].Devs[0], bed.Envs[0].Pool, bed.Local.Card.Port(0)
	peerDev := bed.Peers[0].Env.Devs[0]
	frameNS := int64((frameLen + 24) * 8)
	bufs := make([]*dpdk.Mbuf, 32)

	rxNS, rxAllocs, err := span(n, reps, func() error {
		before := dev.Stats().IPackets
		got := 0
		for i := 0; i < n; i++ {
			port.DeliverFrame(port.Arena().Alloc(frameLen), clk.Now())
			k := dev.RxBurstQ(0, bufs)
			for _, m := range bufs[:k] {
				m.Free()
			}
			got += k
			clk.Advance(frameNS)
		}
		if got != n {
			return fmt.Errorf("probe dpdk.rx_frame: harvested %d of %d frames", got, n)
		}
		return countErr("dpdk.rx_frame", dev.Stats().IPackets-before, uint64(n))
	})
	if err != nil {
		return err
	}
	txNS, txAllocs, err := span(n, reps, func() error {
		before := dev.Stats().OPackets
		one := bufs[:1]
		for i := 0; i < n; i++ {
			m, ok := pool.Get()
			if !ok {
				return fmt.Errorf("probe dpdk.tx_frame: mbuf pool empty at op %d", i)
			}
			if _, err := m.Append(frameLen); err != nil {
				return err
			}
			one[0] = m
			if dev.TxBurstQ(0, one) != 1 {
				return fmt.Errorf("probe dpdk.tx_frame: TX ring refused op %d", i)
			}
			clk.Advance(frameNS)
			port.Step()
			// The far port's FIFO must not back up into drops.
			k := peerDev.RxBurstQ(0, bufs)
			for _, pm := range bufs[:k] {
				pm.Free()
			}
		}
		return countErr("dpdk.tx_frame", dev.Stats().OPackets-before, uint64(n))
	})
	ps.ns("dpdk.rx_frame_ns", rxNS)
	ps.ns("dpdk.tx_frame_ns", txNS)
	ps.allocs("dpdk.frame_allocs", (rxAllocs+txAllocs)/2)
	return err
}

// stackPair is the probe bed's two stacks with a virtual-time driver.
type stackPair struct {
	bed  *testbed.Bed
	clk  *sim.VClock
	a, b *fstack.Stack
}

func newStackPair() (*stackPair, error) {
	bed, clk, err := probeBed()
	if err != nil {
		return nil, err
	}
	return &stackPair{bed: bed, clk: clk, a: bed.Envs[0].Stk, b: bed.Peers[0].Env.Stk}, nil
}

// tick polls both stacks and moves the clock the way the scenario
// driver does: one 5 µs step, or a leap to the grid point holding the
// bed's next deadline when nothing is due before it.
func (p *stackPair) tick() {
	p.a.PollOnce()
	p.b.PollOnce()
	now := p.clk.Now()
	step := int64(5000)
	if next := p.bed.NextDeadline(now); next > now+step {
		step = min((next-now+step-1)/step*step, 1e6)
	}
	p.clk.Advance(step)
}

func (p *stackPair) until(what string, cond func() bool) error {
	for i := 0; i < 20000; i++ {
		if cond() {
			return nil
		}
		p.tick()
	}
	return fmt.Errorf("probe: %s not reached", what)
}

func stackStats(s *fstack.Stack) fstack.StackStats {
	s.Lock()
	defer s.Unlock()
	return s.Stats()
}

var (
	ipA = testbed.LocalIP(0)
	ipB = testbed.PeerIP(0)
)

// connect establishes one TCP connection from a to b's listener.
func (p *stackPair) connect(lfd int, port, sport uint16) (cfd, afd int, err error) {
	cfd, errno := p.a.Socket(fstack.SockStream)
	if errno != hostos.OK {
		return 0, 0, fmt.Errorf("probe: socket: %v", errno)
	}
	if sport != 0 {
		if errno := p.a.Bind(cfd, fstack.IPv4Addr{}, sport); errno != hostos.OK {
			return 0, 0, fmt.Errorf("probe: bind: %v", errno)
		}
	}
	if errno := p.a.Connect(cfd, ipB, port); errno != hostos.EINPROGRESS {
		return 0, 0, fmt.Errorf("probe: connect: %v", errno)
	}
	afd = -1
	err = p.until("accept", func() bool {
		fd, _, _, errno := p.b.Accept(lfd)
		if errno == hostos.OK {
			afd = fd
		}
		return afd >= 0
	})
	if err != nil {
		return 0, 0, err
	}
	err = p.until("client established", func() bool { return p.a.ConnState(cfd) == "ESTABLISHED" })
	return cfd, afd, err
}

func (p *stackPair) listen(port uint16) (int, error) {
	lfd, errno := p.b.Socket(fstack.SockStream)
	if errno != hostos.OK {
		return 0, fmt.Errorf("probe: socket: %v", errno)
	}
	if errno := p.b.Bind(lfd, fstack.IPv4Addr{}, port); errno != hostos.OK {
		return 0, fmt.Errorf("probe: bind: %v", errno)
	}
	if errno := p.b.Listen(lfd, 8); errno != hostos.OK {
		return 0, fmt.Errorf("probe: listen: %v", errno)
	}
	return lfd, nil
}

// probeTCPFrame streams bulk data between the two stacks and divides
// by the frames they moved: the per-frame cost of the whole simulated
// datapath (socket buffer, TCP output, mbuf, rings, NIC, wire and back
// up, plus the ACK path).
func probeTCPFrame(ps probeSet, scale, reps int) error {
	n := 8000 / scale // data frames per rep
	p, err := newStackPair()
	if err != nil {
		return err
	}
	lfd, err := p.listen(9000)
	if err != nil {
		return err
	}
	cfd, afd, err := p.connect(lfd, 9000, 0)
	if err != nil {
		return err
	}
	payload := make([]byte, 64<<10)
	sinkBuf := make([]byte, 64<<10)
	frames := func() (tx, rx uint64) {
		sa, sb := stackStats(p.a), stackStats(p.b)
		return sa.TxFrames + sb.TxFrames, sa.RxFrames + sb.RxFrames
	}
	stream := func(total int) error {
		sent, got := 0, 0
		for i := 0; got < total; i++ {
			if i > 50*n+10000 {
				return fmt.Errorf("probe fstack.tcp_frame: stream stalled at %d of %d bytes", got, total)
			}
			if sent < total {
				k, errno := p.a.Write(cfd, payload[:min(len(payload), total-sent)])
				if errno != hostos.OK && errno != hostos.EAGAIN {
					return fmt.Errorf("probe fstack.tcp_frame: write: %v", errno)
				}
				sent += k
			}
			p.tick()
			for {
				k, errno := p.b.Read(afd, sinkBuf)
				if errno != hostos.OK || k == 0 {
					break
				}
				got += k
			}
		}
		// Let the last ACKs land so the next rep starts clean.
		for i := 0; i < 64; i++ {
			p.tick()
		}
		return nil
	}
	if err := stream(64 * mss); err != nil { // warm-up: ARP, rings, arenas
		return err
	}
	var moved uint64
	ns, allocs, err := span(1, reps, func() error {
		tx0, rx0 := frames()
		if err := stream(n * mss); err != nil {
			return err
		}
		tx1, rx1 := frames()
		moved = tx1 - tx0
		// Ideal wire: every frame a stack sent, a stack received.
		return countErr("fstack.tcp_frame", rx1-rx0, moved)
	})
	if err != nil {
		return err
	}
	if moved < uint64(n) {
		return fmt.Errorf("probe fstack.tcp_frame: %d frames moved for %d segments of payload", moved, n)
	}
	ps.ns("fstack.tcp_frame_ns", ns/float64(moved))
	ps.allocs("fstack.tcp_frame_allocs", allocs/float64(moved))
	return allocFree("fstack.tcp_frame", allocs/float64(moved), int(moved))
}

// probeConnCycle runs the full connection lifecycle at steady state:
// connect over a tuple in TIME_WAIT, SYN-cache handshake, accept, and a
// both-sides close back into the arena.
func probeConnCycle(ps probeSet, scale, reps int) error {
	n := 2000 / scale
	p, err := newStackPair()
	if err != nil {
		return err
	}
	tuning := fstack.TCPTuning{SndBufBytes: 16384, RcvBufBytes: 16384}
	p.a.SetTCPTuning(tuning)
	p.b.SetTCPTuning(tuning)
	lfd, err := p.listen(9100)
	if err != nil {
		return err
	}
	cycle := func() error {
		cfd, afd, err := p.connect(lfd, 9100, 25000)
		if err != nil {
			return err
		}
		p.a.Close(cfd)
		if err := p.until("server saw FIN", func() bool { return p.b.ConnState(afd) == "CLOSE_WAIT" }); err != nil {
			return err
		}
		p.b.Close(afd)
		return p.until("teardown drained", func() bool { return p.b.ConnCount() == 0 && p.a.ConnCount() == 1 })
	}
	for i := 0; i < 32; i++ {
		if err := cycle(); err != nil {
			return err
		}
	}
	ns, allocs, err := span(n, reps, func() error {
		before := stackStats(p.b).Accepts
		for i := 0; i < n; i++ {
			if err := cycle(); err != nil {
				return err
			}
		}
		return countErr("fstack.conn_cycle", stackStats(p.b).Accepts-before, uint64(n))
	})
	if err != nil {
		return err
	}
	ps.ns("fstack.conn_cycle_ns", ns)
	ps.allocs("fstack.conn_cycle_allocs", allocs)
	return allocFree("fstack.conn_cycle", allocs, n)
}

// probeUDP is one datagram query/answer exchange, the DNS shape.
func probeUDP(ps probeSet, scale, reps int) error {
	n := 5000 / scale
	p, err := newStackPair()
	if err != nil {
		return err
	}
	sfd, _ := p.b.Socket(fstack.SockDgram)
	if errno := p.b.Bind(sfd, fstack.IPv4Addr{}, 9053); errno != hostos.OK {
		return fmt.Errorf("probe fstack.udp_rtt: bind: %v", errno)
	}
	cfd, _ := p.a.Socket(fstack.SockDgram)
	if errno := p.a.Bind(cfd, fstack.IPv4Addr{}, 9054); errno != hostos.OK {
		return fmt.Errorf("probe fstack.udp_rtt: bind: %v", errno)
	}
	query, answer := make([]byte, 64), make([]byte, 256)
	bufA, bufB := make([]byte, 512), make([]byte, 512)
	roundTrip := func() error {
		if _, errno := p.a.SendTo(cfd, query, ipB, 9053); errno != hostos.OK {
			return fmt.Errorf("probe fstack.udp_rtt: send: %v", errno)
		}
		answered := false
		for tick := 0; tick < 4000; tick++ {
			p.tick()
			if !answered {
				if _, src, sport, errno := p.b.RecvFrom(sfd, bufB); errno == hostos.OK {
					if _, errno := p.b.SendTo(sfd, answer, src, sport); errno != hostos.OK {
						return fmt.Errorf("probe fstack.udp_rtt: answer: %v", errno)
					}
					answered = true
				}
			}
			if k, _, _, errno := p.a.RecvFrom(cfd, bufA); errno == hostos.OK {
				if k != len(answer) {
					return fmt.Errorf("probe fstack.udp_rtt: answer truncated to %d bytes", k)
				}
				return nil
			}
		}
		return fmt.Errorf("probe fstack.udp_rtt: round trip stalled")
	}
	for i := 0; i < 4; i++ { // ARP, rings and the payload arena warm up
		if err := roundTrip(); err != nil {
			return err
		}
	}
	ns, allocs, err := span(n, reps, func() error {
		before := stackStats(p.a).RxFrames
		for i := 0; i < n; i++ {
			if err := roundTrip(); err != nil {
				return err
			}
		}
		return countErr("fstack.udp_rtt", stackStats(p.a).RxFrames-before, uint64(n))
	})
	if err != nil {
		return err
	}
	ps.ns("fstack.udp_rtt_ns", ns)
	ps.allocs("fstack.udp_rtt_allocs", allocs)
	return allocFree("fstack.udp_rtt", allocs, n)
}

// probeIdle times the driver's two per-instant calls on a bed that
// holds an idle connection population with nothing due: what every
// visited instant of a churn run pays before any work is done.
func probeIdle(ps probeSet, scale, reps int) error {
	conns, n := 10000/scale, 2000/scale
	cfg := core.Scenario8Config{Shards: 4, CapMode: true, Conns: conns, Rate: 1000, DurationNS: 2e6}
	clk := sim.NewVClock()
	bed, err := core.NewScenario8(clk, cfg)
	if err != nil {
		return err
	}
	if _, err := core.Scenario8Churn(bed, cfg); err != nil {
		return err
	}
	if got := bed.Sharded.ConnCount(); got < conns {
		return fmt.Errorf("probe fstack.idle_poll: bed holds %d connections, want at least %d", got, conns)
	}
	loops := bed.Loops()
	// Settle whatever the scenario's last instant left due.
	for i := 0; i < 8 && bed.NextDeadline(clk.Now()) <= clk.Now(); i++ {
		for _, l := range loops {
			l.RunOnce()
		}
		clk.Advance(5000)
	}
	now := clk.Now()
	if next := bed.NextDeadline(now); next <= now {
		return fmt.Errorf("probe fstack.idle_poll: bed still has work due at the probe instant")
	}
	pollNS, _, err := span(n, reps, func() error {
		var before uint64
		for _, l := range loops {
			before += l.Iterations()
		}
		for i := 0; i < n; i++ {
			for _, l := range loops {
				l.RunOnce()
			}
		}
		var after uint64
		for _, l := range loops {
			after += l.Iterations()
		}
		return countErr("fstack.idle_poll", after-before, uint64(n*len(loops)))
	})
	if err != nil {
		return err
	}
	var due int
	ndNS, _, err := span(n, reps, func() error {
		for i := 0; i < n; i++ {
			if bed.NextDeadline(now) <= now {
				due++
			}
		}
		return nil
	})
	if due != 0 {
		return fmt.Errorf("probe fstack.next_deadline: %d calls found work due on an idle bed", due)
	}
	ps.ns("fstack.idle_poll_ns", pollNS)
	ps.ns("fstack.next_deadline_ns", ndNS)
	return err
}

func probeWheel(ps probeSet, scale, reps int) error {
	n := 200000 / scale
	const tickShift = 16
	w := connscale.New[int](0, tickShift)
	// A standing population, as a stack's idle connections keep.
	pop := 10000 / scale
	for i := 0; i < pop; i++ {
		w.Insert(int64(1e9)+int64(i)*1e5, i)
	}
	irNS, _, err := span(n, reps, func() error {
		for i := 0; i < n; i++ {
			h := w.Insert(int64(2e9)+int64(i%1000)*1e6, i)
			w.Remove(h)
		}
		return countErr("connscale.wheel_insert_remove", uint64(w.Len()), uint64(pop))
	})
	if err != nil {
		return err
	}
	ps.ns("connscale.wheel_insert_remove_ns", irNS)

	// NextDeadline right after the earliest timer went away: the cached
	// minimum is stale and the wheel has to find the next one.
	m := n / 20
	var total time.Duration
	for i := 0; i < m; i++ {
		h := w.Insert(int64(5e8), -1)
		if w.NextDeadline() > int64(5e8)+1<<tickShift {
			return fmt.Errorf("probe connscale.wheel_next_deadline: inserted minimum not reported")
		}
		w.Remove(h)
		t0 := time.Now()
		d := w.NextDeadline()
		total += time.Since(t0)
		if d < int64(1e9)-1<<tickShift {
			return fmt.Errorf("probe connscale.wheel_next_deadline: stale minimum %d reported", d)
		}
	}
	ps.ns("connscale.wheel_next_deadline_ns", float64(total.Nanoseconds())/float64(m))

	// Firing: every timer of a fresh wheel in one Advance; only the
	// Advance is timed.
	var fires []float64
	for r := 0; r < reps; r++ {
		fw := connscale.New[int](0, tickShift)
		for i := 0; i < n; i++ {
			fw.Insert(int64(i+1)*1e5, i)
		}
		fired := 0
		t0 := time.Now()
		fw.Advance(int64(n+2)*1e5, func(int) { fired++ })
		fires = append(fires, float64(time.Since(t0).Nanoseconds()))
		if err := countErr("connscale.wheel_fire", uint64(fired), uint64(n)); err != nil {
			return err
		}
	}
	_, fireNS, _ := quartiles(fires)
	fireNS /= float64(n)
	ps.ns("connscale.wheel_fire_ns", fireNS)
	return nil
}

func probeGates(ps probeSet, scale, reps int) error {
	n := 200000 / scale
	s2, err := core.NewScenario2(hostos.NewRealClock(), 1)
	if err != nil {
		return err
	}
	iv := s2.Local.IV
	gate, err := iv.NewGate(s2.Envs[0].CVM,
		func(_ *intravisor.CVM, a hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) { return a[0] + 1, hostos.OK })
	if err != nil {
		return err
	}
	caller := s2.AppCVM(0)
	ns, _, err := span(n, reps, func() error {
		before := iv.Crossings.Load()
		for i := 0; i < n; i++ {
			if r, errno := gate.Call(caller, hostos.Args{uint64(i)}, cheri.NullCap); errno != hostos.OK || r != uint64(i)+1 {
				return fmt.Errorf("probe intravisor.gate_call: call %d failed: %v", i, errno)
			}
		}
		return countErr("intravisor.gate_call", iv.Crossings.Load()-before, uint64(n))
	})
	if err != nil {
		return err
	}
	ps.ns("intravisor.gate_call_ns", ns)

	s1, err := core.NewScenario1(hostos.NewRealClock())
	if err != nil {
		return err
	}
	cvm, iv1 := s1.Envs[0].CVM, s1.Local.IV
	ns, _, err = span(n, reps, func() error {
		before := iv1.Crossings.Load()
		for i := 0; i < n; i++ {
			if cvm.NowNS() < 0 {
				return fmt.Errorf("probe intravisor.trampoline: clock read failed")
			}
		}
		return countErr("intravisor.trampoline", iv1.Crossings.Load()-before, uint64(n))
	})
	ps.ns("intravisor.trampoline_ns", ns)
	return err
}

func probeCheri(ps probeSet, scale, reps int) error {
	n := 1000000 / scale
	mem := cheri.NewTMem(1 << 20)
	capa, err := mem.Root().SetAddr(0x1000).SetBounds(64 * 1024)
	if err != nil {
		return err
	}
	dst := make([]byte, mss)
	var copied int
	checked, _, err := span(n, reps, func() error {
		copied = 0
		for i := 0; i < n; i++ {
			s, err := mem.CheckedSliceRO(capa, 0x1000, len(dst))
			if err != nil {
				return err
			}
			copied += copy(dst, s)
		}
		return countErr("cheri.checked_slice", uint64(copied), uint64(n*len(dst)))
	})
	if err != nil {
		return err
	}
	raw, _, err := span(n, reps, func() error {
		copied = 0
		for i := 0; i < n; i++ {
			s, err := mem.RawSlice(0x1000, len(dst))
			if err != nil {
				return err
			}
			copied += copy(dst, s)
		}
		return countErr("cheri.raw_slice", uint64(copied), uint64(n*len(dst)))
	})
	ps.ns("cheri.checked_slice_ns", checked)
	ps.ns("cheri.raw_slice_ns", raw)
	return err
}

// cannedAPI is a stub app.API that feeds a server canned request bytes
// and swallows its replies: the parser and stepper without the stack.
type cannedAPI struct {
	// batch is what one Step's reads return: requests for the stream
	// socket, one datagram per RecvFrom for the datagram socket.
	batch    []byte
	perStep  int
	pending  int
	accepted bool
	written  int
	sent     int
}

const (
	cannedEpfd = 1
	cannedLfd  = 3
	cannedCfd  = 4
)

func (c *cannedAPI) Socket(int) (int, hostos.Errno)                    { return cannedLfd, hostos.OK }
func (c *cannedAPI) Bind(int, fstack.IPv4Addr, uint16) hostos.Errno    { return hostos.OK }
func (c *cannedAPI) Listen(int, int) hostos.Errno                      { return hostos.OK }
func (c *cannedAPI) Connect(int, fstack.IPv4Addr, uint16) hostos.Errno { return hostos.EINVAL }
func (c *cannedAPI) Close(int) hostos.Errno                            { return hostos.OK }
func (c *cannedAPI) EpollCreate() int                                  { return cannedEpfd }
func (c *cannedAPI) EpollCtl(int, int, int, uint32) hostos.Errno       { return hostos.OK }
func (c *cannedAPI) Write(_ int, src []byte) (int, hostos.Errno) {
	c.written += len(src)
	return len(src), hostos.OK
}
func (c *cannedAPI) SendTo(_ int, d []byte, _ fstack.IPv4Addr, _ uint16) (int, hostos.Errno) {
	c.sent++
	return len(d), hostos.OK
}

func (c *cannedAPI) Accept(int) (int, fstack.IPv4Addr, uint16, hostos.Errno) {
	if c.accepted {
		return 0, fstack.IPv4Addr{}, 0, hostos.EAGAIN
	}
	c.accepted = true
	return cannedCfd, ipB, 40000, hostos.OK
}

// EpollWait reports the listener readable until the one connection is
// accepted, then that connection (or the datagram socket, which shares
// the listener's descriptor) readable with a fresh batch.
func (c *cannedAPI) EpollWait(_ int, evs []fstack.Event) (int, hostos.Errno) {
	c.pending = c.perStep
	fd := cannedLfd
	if c.accepted {
		fd = cannedCfd
	}
	evs[0] = fstack.Event{FD: fd, Events: fstack.EPOLLIN}
	return 1, hostos.OK
}

func (c *cannedAPI) Read(_ int, dst []byte) (int, hostos.Errno) {
	if c.pending == 0 {
		return 0, hostos.EAGAIN
	}
	c.pending = 0
	return copy(dst, c.batch), hostos.OK
}

func (c *cannedAPI) RecvFrom(_ int, dst []byte) (int, fstack.IPv4Addr, uint16, hostos.Errno) {
	if c.pending == 0 {
		return 0, fstack.IPv4Addr{}, 0, hostos.EAGAIN
	}
	c.pending--
	return copy(dst, c.batch), ipB, 40000, hostos.OK
}

func probeApp(ps probeSet, scale, reps int) error {
	const perStep = 8
	n := 80000 / scale / perStep * perStep
	request := []byte("GET / HTTP/1.1\r\nHost: cherinet\r\n\r\n")
	var batch []byte
	for i := 0; i < perStep; i++ {
		batch = append(batch, request...)
	}
	hapi := &cannedAPI{batch: batch, perStep: perStep}
	hs := app.NewHTTPServer(fstack.IPv4Addr{}, 8080, 16, 1200)
	hs.Step(hapi, 0) // listen
	hs.Step(hapi, 0) // accept the one connection
	httpNS, _, err := span(n, reps, func() error {
		before := hs.Served()
		for i := 0; i < n/perStep; i++ {
			hs.Step(hapi, int64(i))
		}
		if hs.Err() != hostos.OK {
			return fmt.Errorf("probe app.http_step: server failed: %v", hs.Err())
		}
		return countErr("app.http_step", hs.Served()-before, uint64(n))
	})
	if err != nil {
		return err
	}
	ps.ns("app.http_step_ns", httpNS)

	// A DNS-shaped query: 12-byte header (ID, RD, one question), then
	// QNAME cherinet.test, QTYPE A, QCLASS IN.
	query := append([]byte{0x12, 0x34, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0},
		[]byte("\x08cherinet\x04test\x00\x00\x01\x00\x01")...)
	dapi := &cannedAPI{batch: query, perStep: perStep}
	ds := app.NewDNSServer(fstack.IPv4Addr{}, 5353)
	ds.Step(dapi, 0) // bind; the datagram socket is the stub's first descriptor
	dnsNS, _, err := span(n, reps, func() error {
		before, sent0 := ds.Served(), dapi.sent
		for i := 0; i < n/perStep; i++ {
			ds.Step(dapi, int64(i))
		}
		if ds.Err() != hostos.OK {
			return fmt.Errorf("probe app.dns_step: server failed: %v", ds.Err())
		}
		if err := countErr("app.dns_step (answers)", uint64(dapi.sent-sent0), uint64(n)); err != nil {
			return err
		}
		return countErr("app.dns_step", ds.Served()-before, uint64(n))
	})
	ps.ns("app.dns_step_ns", dnsNS)
	return err
}

func probeStatsObs(ps probeSet, scale, reps int) error {
	n := 1000000 / scale
	var h stats.Histogram
	ns, _, err := span(n, reps, func() error {
		before := h.Count()
		for i := 0; i < n; i++ {
			h.Record(int64(i)*37 + 1000)
		}
		return countErr("stats.hist_record", h.Count()-before, uint64(n))
	})
	if err != nil {
		return err
	}
	ps.ns("stats.hist_record_ns", ns)

	tr := obs.NewTrace(1 << 16)
	ns, _, err = span(n, reps, func() error {
		before := tr.Total()
		for i := 0; i < n; i++ {
			tr.Record(int64(i), obs.EvNetemDrop, 1, int64(i), 0, 0)
		}
		return countErr("obs.trace_record", tr.Total()-before, uint64(n))
	})
	ps.ns("obs.trace_record_ns", ns)
	return err
}

func probeBuild(ps probeSet, scale, reps int) error {
	n := max(20/scale, 3)
	ns, _, err := span(n, reps, func() error {
		for i := 0; i < n; i++ {
			bed, _, err := probeBed()
			if err != nil {
				return err
			}
			if len(bed.Loops()) != 2 {
				return fmt.Errorf("probe testbed.build: bed has %d loops, want 2", len(bed.Loops()))
			}
		}
		return nil
	})
	ps["testbed.build_ms"] = metric{ns / 1e6, "ms"}
	return err
}

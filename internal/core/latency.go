package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/cheri"
	"repro/internal/fstack"
	"repro/internal/hostos"
)

// FFWriteConfig parameterizes the ff_write() latency experiments of
// Figs. 4-6. The paper measures 1 million iterations; the default here
// is smaller so the full suite stays fast — `cherinet` exposes the full
// count.
type FFWriteConfig struct {
	// Iterations is the number of timed ff_write calls.
	Iterations int
	// IntervalNS spaces consecutive timed writes ("we increased the
	// interval between two consecutive ff_write", §IV).
	IntervalNS int64
	// Payload is the ff_write byte count (one MSS of data by default).
	Payload int
}

// DefaultFFWriteConfig mirrors the evaluation at a CI-friendly scale.
func DefaultFFWriteConfig() FFWriteConfig {
	return FFWriteConfig{Iterations: 20000, IntervalNS: 20_000, Payload: 1448}
}

// LatencySet is one box of the Figs. 4-6 box plots.
type LatencySet struct {
	Label   string
	Samples []int64 // ns per ff_write, unfiltered (IQR happens in stats)
}

// latPort is the TCP port the latency probes connect to.
const latPort = uint16(5301)

// startPeerSinks launches every peer loop with a byte-sink server
// (accept + read + discard) and returns a stop function.
func startPeerSinks(s *Setup, flows int) (stop func()) {
	var wg sync.WaitGroup
	for _, p := range s.Peers {
		sinks := make([]*app.IperfServer, flows)
		for i := range sinks {
			sinks[i] = newReceiver(latPort + uint16(i))
		}
		api := p.Env.Loop.Locked()
		p.Env.Loop.OnLoop = func(now int64) bool {
			for _, sv := range sinks {
				sv.Step(api, now)
			}
			return true
		}
		p.Env.Loop.Yield = true
		wg.Add(1)
		go func(l *fstack.Loop) {
			defer wg.Done()
			l.Run()
		}(p.Env.Loop)
	}
	return func() {
		for _, p := range s.Peers {
			p.Env.Loop.Stop()
		}
		wg.Wait()
	}
}

// inLoopProbe drives connect-then-measure inside an environment's main
// loop (the Baseline / Scenario 1 layout). The produced samples time
// ff_write through the environment's write path: plain Write for the
// Baseline, capability WriteCap for a cVM — bracketed by the
// environment's clock reads (direct syscall vs Intravisor trampoline).
type inLoopProbe struct {
	env     *Env
	k       *hostos.Kernel
	cfg     FFWriteConfig
	dstIP   fstack.IPv4Addr
	dstPort uint16

	payload []byte
	bufCap  cheri.Cap // cVM variant: capability over the app buffer

	fd, epfd int
	phase    int // 0=init 1=connecting 2=measuring 3=done
	nextAt   int64
	samples  []int64
	err      hostos.Errno
}

// newInLoopProbe prepares the probe and, for cVM environments, stages
// the application buffer inside the compartment window.
func newInLoopProbe(env *Env, k *hostos.Kernel, cfg FFWriteConfig, dst fstack.IPv4Addr, port uint16) (*inLoopProbe, error) {
	p := &inLoopProbe{env: env, k: k, cfg: cfg, dstIP: dst, dstPort: port}
	p.payload = make([]byte, cfg.Payload)
	for i := range p.payload {
		p.payload[i] = byte(i)
	}
	if env.CVM != nil {
		// The buffer is application data in the cVM's own window; the
		// capability derived over it is what ff_write receives.
		addr := env.CVM.Base() + 0x100
		if err := env.CVM.Store(addr, p.payload); err != nil {
			return nil, err
		}
		buf, err := env.CVM.DeriveBuf(addr, uint64(len(p.payload)))
		if err != nil {
			return nil, err
		}
		p.bufCap = buf
	}
	return p, nil
}

// step is the loop callback body; returns false when measurement ends.
func (p *inLoopProbe) step(now int64) bool {
	api := p.env.Loop.Locked()
	switch p.phase {
	case 0:
		fd, errno := api.Socket(fstack.SockStream)
		if errno != hostos.OK {
			p.err = errno
			p.phase = 3
			return false
		}
		p.fd = fd
		p.epfd = api.EpollCreate()
		api.EpollCtl(p.epfd, fstack.EpollCtlAdd, p.fd, fstack.EPOLLOUT)
		if errno := api.Connect(p.fd, p.dstIP, p.dstPort); errno != hostos.EINPROGRESS && errno != hostos.OK {
			p.err = errno
			p.phase = 3
			return false
		}
		p.phase = 1
	case 1:
		var evs [2]fstack.Event
		n, _ := api.EpollWait(p.epfd, evs[:])
		for i := 0; i < n; i++ {
			if evs[i].Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0 {
				p.err = hostos.ECONNREFUSED
				p.phase = 3
				return false
			}
			if evs[i].Events&fstack.EPOLLOUT != 0 {
				p.phase = 2
				p.nextAt = now
			}
		}
	case 2:
		if now < p.nextAt {
			return true
		}
		// The measured region: clock read, ff_write, clock read —
		// exactly the probe of §IV. For a cVM both clock reads cross
		// into the Intravisor.
		var t0, t1 int64
		var errno hostos.Errno
		if p.env.CVM != nil {
			t0 = p.env.CVM.NowNS()
			_, errno = api.WriteCap(p.fd, p.env.CVM.Mem(), p.bufCap, len(p.payload))
			t1 = p.env.CVM.NowNS()
		} else {
			t0 = p.directNow()
			_, errno = api.Write(p.fd, p.payload)
			t1 = p.directNow()
		}
		if errno == hostos.OK {
			p.samples = append(p.samples, t1-t0)
		} else if errno != hostos.EAGAIN {
			p.err = errno
			p.phase = 3
			return false
		}
		p.nextAt = now + p.cfg.IntervalNS
		if len(p.samples) >= p.cfg.Iterations {
			api.Close(p.fd)
			p.phase = 3
			return false
		}
	}
	return true
}

// directNow is the Baseline's clock path: an ordinary host syscall.
func (p *inLoopProbe) directNow() int64 {
	s, ns, _ := p.k.Syscall(hostos.SysClockGettime, hostos.Args{hostos.ClockMonotonicRaw})
	return int64(s)*1e9 + int64(ns)
}

// measureInLoop runs one probe per environment of the setup
// concurrently and returns their sample sets.
func measureInLoop(s *Setup, cfg FFWriteConfig) ([]LatencySet, error) {
	stop := startPeerSinks(s, 1)
	defer stop()

	probes := make([]*inLoopProbe, len(s.Envs))
	for i, env := range s.Envs {
		pr, err := newInLoopProbe(env, s.Local.K, cfg, peerIP(i), latPort)
		if err != nil {
			return nil, err
		}
		probes[i] = pr
		env.Loop.OnLoop = pr.step
		env.Loop.Yield = true
	}
	var wg sync.WaitGroup
	for _, env := range s.Envs {
		wg.Add(1)
		go func(l *fstack.Loop) {
			defer wg.Done()
			l.Run()
		}(env.Loop)
	}
	wg.Wait()
	out := make([]LatencySet, len(probes))
	for i, pr := range probes {
		if pr.err != hostos.OK {
			return nil, fmt.Errorf("core: probe %s failed: %v", s.Envs[i].Name, pr.err)
		}
		out[i] = LatencySet{Label: s.Envs[i].Name, Samples: pr.samples}
	}
	return out, nil
}

// gatedProbe measures ff_write from a Scenario 2 application cVM: the
// app runs as its own thread, every API call crosses the gate into the
// stack compartment, and the measured time includes the crossing, the
// F-Stack mutex, and the capability copy (§IV).
func gatedProbe(api *GatedAPI, cfg FFWriteConfig, dst fstack.IPv4Addr, port uint16) ([]int64, hostos.Errno) {
	fd, errno := api.Socket(fstack.SockStream)
	if errno != hostos.OK {
		return nil, errno
	}
	epfd := api.EpollCreate()
	api.EpollCtl(epfd, fstack.EpollCtlAdd, fd, fstack.EPOLLOUT)
	if errno := api.Connect(fd, dst, port); errno != hostos.EINPROGRESS && errno != hostos.OK {
		return nil, errno
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var evs [2]fstack.Event
		n, _ := api.EpollWait(epfd, evs[:])
		ready := false
		for i := 0; i < n; i++ {
			if evs[i].Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0 {
				return nil, hostos.ECONNREFUSED
			}
			if evs[i].Events&fstack.EPOLLOUT != 0 {
				ready = true
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			return nil, hostos.ETIMEDOUT
		}
		time.Sleep(10 * time.Microsecond)
	}
	payload := make([]byte, cfg.Payload)
	for i := range payload {
		payload[i] = byte(i)
	}
	samples := make([]int64, 0, cfg.Iterations)
	for len(samples) < cfg.Iterations {
		t0 := api.App.NowNS()
		_, errno := api.Write(fd, payload)
		t1 := api.App.NowNS()
		switch errno {
		case hostos.OK:
			samples = append(samples, t1-t0)
		case hostos.EAGAIN:
			// back off, the stack drains at line rate
		default:
			return samples, errno
		}
		if cfg.IntervalNS > 0 {
			time.Sleep(time.Duration(cfg.IntervalNS))
		}
	}
	api.Close(fd)
	return samples, hostos.OK
}

// hammer saturates ff_write from an application cVM until stop closes —
// the second application of the contended Scenario 2.
func hammer(api *GatedAPI, payload int, dst fstack.IPv4Addr, port uint16, stop <-chan struct{}) {
	fd, errno := api.Socket(fstack.SockStream)
	if errno != hostos.OK {
		return
	}
	if errno := api.Connect(fd, dst, port); errno != hostos.EINPROGRESS && errno != hostos.OK {
		return
	}
	buf := make([]byte, payload)
	for {
		select {
		case <-stop:
			api.Close(fd)
			return
		default:
		}
		api.Write(fd, buf)
	}
}

// MeasureFig4 regenerates Fig. 4: ff_write() in Scenario 1 vs the
// two-process Baseline (four boxes).
func MeasureFig4(cfg FFWriteConfig) ([]LatencySet, error) {
	clk := hostos.NewRealClock()
	base, err := NewBaselineDual(clk)
	if err != nil {
		return nil, err
	}
	baseSets, err := measureInLoop(base, cfg)
	if err != nil {
		return nil, err
	}
	for i := range baseSets {
		baseSets[i].Label = fmt.Sprintf("Baseline (cVM%d)", i+1)
	}
	s1, err := NewScenario1(hostos.NewRealClock())
	if err != nil {
		return nil, err
	}
	s1Sets, err := measureInLoop(s1, cfg)
	if err != nil {
		return nil, err
	}
	for i := range s1Sets {
		s1Sets[i].Label = fmt.Sprintf("Scenario 1 (cVM%d)", i+1)
	}
	return append(baseSets, s1Sets...), nil
}

// measureScenario2 runs the gated probe with `apps` application cVMs
// (1 = uncontended, 2 = contended) and returns the measured app's set.
func measureScenario2(cfg FFWriteConfig, apps int) (LatencySet, error) {
	s, err := NewScenario2(hostos.NewRealClock(), apps)
	if err != nil {
		return LatencySet{}, err
	}
	stop := startPeerSinks(s, apps)
	defer stop()
	// The stack cVM's main loop runs with no embedded app.
	s.Envs[0].Loop.Yield = true
	go s.Envs[0].Loop.Run()
	defer s.Envs[0].Loop.Stop()

	var hammerStop chan struct{}
	var hammerDone sync.WaitGroup
	if apps == 2 {
		hammerStop = make(chan struct{})
		hammerDone.Add(1)
		go func() {
			defer hammerDone.Done()
			hammer(s.Apps[1], cfg.Payload, peerIP(0), latPort+1, hammerStop)
		}()
	}
	samples, errno := gatedProbe(s.Apps[0], cfg, peerIP(0), latPort)
	if hammerStop != nil {
		close(hammerStop)
		hammerDone.Wait()
	}
	if errno != hostos.OK {
		return LatencySet{}, fmt.Errorf("core: scenario 2 probe: %v", errno)
	}
	label := "Scenario 2 (uncontended)"
	if apps == 2 {
		label = "Scenario 2 (contended)"
	}
	return LatencySet{Label: label, Samples: samples}, nil
}

// MeasureFig5 regenerates Fig. 5: ff_write() in uncontended Scenario 2
// vs the single-process Baseline.
func MeasureFig5(cfg FFWriteConfig) ([]LatencySet, error) {
	base, err := NewBaselineSingle(hostos.NewRealClock())
	if err != nil {
		return nil, err
	}
	baseSets, err := measureInLoop(base, cfg)
	if err != nil {
		return nil, err
	}
	baseSets[0].Label = "Baseline"
	s2, err := measureScenario2(cfg, 1)
	if err != nil {
		return nil, err
	}
	return append(baseSets, s2), nil
}

// MeasureFig6 regenerates Fig. 6: uncontended vs contended Scenario 2.
func MeasureFig6(cfg FFWriteConfig) ([]LatencySet, error) {
	unc, err := measureScenario2(cfg, 1)
	if err != nil {
		return nil, err
	}
	con, err := measureScenario2(cfg, 2)
	if err != nil {
		return nil, err
	}
	return []LatencySet{unc, con}, nil
}

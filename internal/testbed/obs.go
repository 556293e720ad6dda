package testbed

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fstack"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Trace source-id plan: every layer tags events with a uint16 "who".
// Local NIC ports use their port index; peer-side identities are offset
// so both ends of a cable stay distinguishable in one trace.
const (
	peerPortSrc  = 64  // peer NIC ports: peerPortSrc + local port index
	peerStackSrc = 128 // peer stacks: peerStackSrc + local port index
)

// LinkCapture is one per-peer libpcap capture: both directions of the
// peer's cable, written at the receiving ends so dropped frames appear
// as gaps.
type LinkCapture struct {
	W *obs.PcapWriter
	f io.Closer
}

// wireObs attaches the spec'd instruments to an already-built bed.
// Called at the end of Build, only when spec.Obs.Enabled() — a zero
// ObsSpec leaves every hook pointer nil and the bed untouched.
func (b *Bed) wireObs(spec Spec) error {
	oSpec := spec.Obs
	o := &obs.Obs{}
	if oSpec.TraceEvents > 0 {
		o.Trace = obs.NewTrace(oSpec.TraceEvents)
	}
	if oSpec.SampleNS > 0 {
		o.Metrics = obs.NewMetrics(oSpec.SampleNS)
	}
	if oSpec.Latency {
		o.Datapath = &stats.Histogram{}
		o.RTT = &stats.Histogram{}
	}
	b.Obs = o
	now := b.Clk.Now

	for i := 0; i < spec.Machine.Ports; i++ {
		b.Local.Card.Port(i).SetObs(o.Trace, o.Datapath, uint16(i))
	}
	if b.Local.IV != nil {
		b.Local.IV.SetTrace(o.Trace, now)
	}
	devSrc := uint16(0)
	for i, e := range b.Envs {
		// A shard's source id is its shard index, a single stack's its
		// environment's index.
		for s, stk := range e.Stacks() {
			src := uint16(i)
			if e.Sharded != nil {
				src = uint16(s)
			}
			stk.SetObs(o.Trace, o.RTT, src)
		}
		// Every driver device, a device-gated environment's included.
		for _, d := range e.drv {
			d.SetObs(o.Trace, now, devSrc)
			devSrc++
		}
	}
	for _, p := range b.Peers {
		p.M.Card.Port(0).SetObs(o.Trace, o.Datapath, peerPortSrc+uint16(p.Port))
		p.Env.Stk.SetObs(o.Trace, o.RTT, peerStackSrc+uint16(p.Port))
		for _, d := range p.Env.drv {
			d.SetObs(o.Trace, now, devSrc)
			devSrc++
		}
		if p.Link != nil {
			// Each direction gets its own source id: base + 0 (to peer),
			// base + 1 (to local).
			p.Link.SetTrace(o.Trace, uint16(p.Port)*2)
		}
	}
	if o.Metrics != nil {
		b.registerGauges(o.Metrics, spec)
	}
	if oSpec.PcapDir != "" {
		return b.openPcaps(oSpec)
	}
	return nil
}

// registerGauges builds the bed's metrics registry: registration order
// is deterministic (envs in spec order, then peers) so the exported CSV
// column order is stable run to run. Fault-plane gauges (compartment
// state, link carrier) only exist when the spec declares faults, so
// fault-free timeseries keep their exact column set.
func (b *Bed) registerGauges(m *obs.Metrics, spec Spec) {
	faults := spec.Faults.Enabled()
	for _, e := range b.Envs {
		stacks := e.Stacks()
		sum := func(f func(*fstack.Stack) int) func(int64) float64 {
			return func(int64) float64 {
				n := 0
				for _, stk := range stacks {
					n += f(stk)
				}
				return float64(n)
			}
		}
		m.Gauge(e.Name+".cwnd_bytes", sum(func(stk *fstack.Stack) int { c, _ := stk.SumCwndPipe(); return c }))
		m.Gauge(e.Name+".pipe_bytes", sum(func(stk *fstack.Stack) int { _, p := stk.SumCwndPipe(); return p }))
		m.Gauge(e.Name+".conns", sum((*fstack.Stack).ConnCount))
		m.Gauge(e.Name+".accept_queue", sum((*fstack.Stack).AcceptQueueDepth))
		for j, d := range e.Devs {
			d := d
			m.Gauge(fmt.Sprintf("%s.dev%d.rx_mbps", e.Name, j), rateMbps(func() uint64 { return d.Stats().IBytes }))
			m.Gauge(fmt.Sprintf("%s.dev%d.tx_mbps", e.Name, j), rateMbps(func() uint64 { return d.Stats().OBytes }))
		}
		if faults {
			m.Gauge(e.Name+".up", func(int64) float64 {
				for _, stk := range stacks {
					if stk.Down() {
						return 0
					}
				}
				return 1
			})
		}
	}
	for i, p := range b.Peers {
		ln := b.Links[i]
		if ln == nil {
			continue
		}
		name := p.Env.Name
		for dir, way := range [...]string{"to_peer", "to_local"} {
			dir := dir
			m.Gauge(fmt.Sprintf("link.%s.%s.held_frames", name, way), func(now int64) float64 {
				f, _ := ln.Depth(dir, now)
				return float64(f)
			})
			m.Gauge(fmt.Sprintf("link.%s.%s.backlog_us", name, way), func(now int64) float64 {
				_, ns := ln.Depth(dir, now)
				return float64(ns) / 1e3
			})
			if faults {
				m.Gauge(fmt.Sprintf("link.%s.%s.carrier", name, way), func(now int64) float64 {
					if ln.Carrier(dir, now) {
						return 1
					}
					return 0
				})
			}
		}
	}
	if iv := b.Local.IV; iv != nil {
		m.Gauge("gate_crossings", func(int64) float64 { return float64(iv.Crossings.Load()) })
	}
}

// rateMbps turns a cumulative byte counter into an interval-throughput
// gauge: each sample reports the megabits per second moved since the
// previous sample.
func rateMbps(get func() uint64) func(now int64) float64 {
	var lastBytes uint64
	var lastNow int64
	started := false
	return func(now int64) float64 {
		b := get()
		var mbps float64
		if started && now > lastNow {
			mbps = float64(b-lastBytes) * 8e3 / float64(now-lastNow)
		}
		lastBytes, lastNow, started = b, now, true
		return mbps
	}
}

// openPcaps creates one capture file per peer and taps both
// ends of that peer's cable into it. The tap observes frames at
// delivery into the receiving port — exactly what survived the link —
// so netem drops show up as sequence gaps in Wireshark.
func (b *Bed) openPcaps(spec ObsSpec) error {
	if err := os.MkdirAll(spec.PcapDir, 0o755); err != nil {
		return fmt.Errorf("testbed: pcap dir: %w", err)
	}
	for _, p := range b.Peers {
		name := p.Env.Name
		f, err := os.Create(filepath.Join(spec.PcapDir, name+".pcap"))
		if err != nil {
			return err
		}
		w, err := obs.NewPcapWriter(f)
		if err != nil {
			f.Close()
			return err
		}
		tap := func(tsNS int64, data []byte) { _ = w.WritePacket(tsNS, data) }
		b.Local.Card.Port(p.Port).SetRxTap(tap) // peer -> local direction
		p.M.Card.Port(0).SetRxTap(tap)          // local -> peer direction
		b.Pcaps = append(b.Pcaps, &LinkCapture{W: w, f: f})
	}
	return nil
}

// ObsTick runs the metrics sampler at the given virtual instant. The
// event-driven driver calls it every iteration; with observability off
// (or metrics off) it is a nil-check and a return.
func (b *Bed) ObsTick(now int64) { b.Obs.Tick(now) }

// CloseObs detaches the pcap taps and closes the capture files; the
// Pcaps entries stay readable (frame counts, sticky errors) afterward.
// Safe to call on a bed without captures, and idempotent.
func (b *Bed) CloseObs() error {
	var first error
	for _, pc := range b.Pcaps {
		if pc.f == nil {
			continue // already closed
		}
		if err := pc.W.Err(); err != nil && first == nil {
			first = err
		}
		if err := pc.f.Close(); err != nil && first == nil {
			first = err
		}
		pc.f = nil
	}
	for _, p := range b.Peers {
		b.Local.Card.Port(p.Port).SetRxTap(nil)
		p.M.Card.Port(0).SetRxTap(nil)
	}
	return first
}

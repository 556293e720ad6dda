package testbed

import (
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/sim"
)

// outageSample is what a frame held toward a dead stack can move: the
// link's two delay lines, and the local port's FIFOs (frames delivered
// to the port, less those DMA'd and those tail-dropped) and tail drops.
type outageSample struct {
	toPeer, toLocal int
	pendingRX       int
	missed          uint64
}

// runOutage drives the bed of TestHeldFrameHasAPolledOwner to endNS the
// way core's driver does — every loop at every 5 µs tick (the oracle),
// or only the loops Bed.LoopDeadlines reports due, leaping over the ticks
// at which none is — and samples the link and the local port at every
// instant it visits.
func runOutage(t *testing.T, leap bool, endNS int64) (samples map[int64]outageSample, visited []int64) {
	t.Helper()
	const tick, sendEvery = 5_000, 35_000
	clk := sim.NewVClock()
	bed, err := Build(Spec{
		Clk:          clk,
		Machine:      MachineSpec{Name: "morello", Ports: 1},
		Compartments: []CompartmentSpec{{Name: "proc", Ifs: []IfSpec{{Port: 0}}}},
		Peers: []PeerSpec{{Port: 0, Link: &LinkSpec{
			ToPeer:  netem.Config{DelayNS: 150_000},
			ToLocal: netem.Config{Seed: 9, DelayNS: 150_000, JitterNS: 40_000},
		}}},
		Faults: FaultSpec{
			CapFaults: []CapFaultSpec{{Env: "proc", At: []int64{2_000_000}}},
			Restart:   RestartSpec{BackoffNS: 3_000_000, MaxBackoffNS: 3_000_000, MaxRetries: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	peer, port, link := bed.Peers[0].Env.Stk, bed.Local.Card.Port(0), bed.Links[0]
	delivered := 0
	port.SetRxTap(func(int64, []byte) { delivered++ })
	fd, _ := peer.Socket(fstack.SockDgram)
	datagram := make([]byte, 1400)
	loops := bed.Loops()
	due, dueAt := make([]bool, len(loops)), make([]int64, len(loops))
	for i := range due {
		due[i] = true
	}
	samples = map[int64]outageSample{}
	for nextSend := int64(0); clk.Now() < endNS; {
		for i, l := range loops {
			if due[i] {
				l.RunOnce()
			}
		}
		now := clk.Now()
		if now >= nextSend { // the peer keeps sending through the outage
			if _, errno := peer.SendTo(fd, datagram, LocalIP(0), 9053); errno != hostos.OK {
				t.Fatalf("at %d: peer send: %v", now, errno)
			}
			nextSend += sendEvery
		}
		bed.FaultStep(now)
		var s outageSample
		s.toPeer, _ = link.Depth(0, now)
		s.toLocal, _ = link.Depth(1, now)
		s.missed = port.Missed()
		s.pendingRX = delivered - int(port.RegRead32(nic.RegGPRC)) - int(s.missed)
		samples[now] = s
		visited = append(visited, now)

		next := bed.LoopDeadlines(now, dueAt)
		peerLoop := len(loops) - 1 // the sender is the peer loop's guest
		dueAt[peerLoop] = min(dueAt[peerLoop], nextSend)
		next = min(next, nextSend, endNS)
		step := int64(tick)
		if leap && next > now+tick {
			step = (next - now + tick - 1) / tick * tick
		}
		for i := range due {
			due[i] = !leap || dueAt[i] <= now+step
		}
		clk.Advance(step)
	}
	return samples, visited
}

// TestHeldFrameHasAPolledOwner: a netem link, the local stack crashed by
// the fault plane for 3 ms, the peer still sending, a supervised restart.
// While the stack is down its loop polls nothing and reports no deadline,
// so the frames the link holds toward it are released only because
// LoopDeadlines charges them to the peer's loop. With that, the link's
// depth and the dead port's FIFO contents and tail drops at every instant
// the due-set driver visits are the tick oracle's, and the driver leaps
// through the outage instead of ticking on a release instant no loop is
// due for.
func TestHeldFrameHasAPolledOwner(t *testing.T) {
	const endNS, crashAt, restartAt = 8_000_000, 2_000_000, 5_000_000
	oracle, ticks := runOutage(t, false, endNS)
	event, visited := runOutage(t, true, endNS)
	heldDuringOutage := false
	for _, at := range visited {
		want, ok := oracle[at]
		if !ok {
			t.Fatalf("the due-set driver visited %d ns, which the tick oracle never reached", at)
		}
		if got := event[at]; got != want {
			t.Fatalf("at %d ns: link depth %d/%d, pending RX %d, missed %d; the tick oracle has %d/%d, %d, %d",
				at, got.toPeer, got.toLocal, got.pendingRX, got.missed, want.toPeer, want.toLocal, want.pendingRX, want.missed)
		}
		if at > crashAt && at < restartAt && want.toLocal > 0 {
			heldDuringOutage = true
		}
	}
	last := oracle[ticks[len(ticks)-1]]
	if !heldDuringOutage || last.missed == 0 || last.pendingRX != 0 {
		t.Fatalf("the outage held a frame: %v; at the end %d tail drops and %d frames pending — the script checked nothing",
			heldDuringOutage, last.missed, last.pendingRX)
	}
	if len(visited)*3 > len(ticks) {
		t.Fatalf("the due-set driver visited %d of the oracle's %d ticks: it did not leap through the outage", len(visited), len(ticks))
	}
}

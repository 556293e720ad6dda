//go:build !race

package testbed

import (
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// TestCPUBudgetedRoundTripZeroAllocs pins the CPU model's datapath: a
// datagram query/answer round trip through a CPU-budgeted 2-shard
// compartment must not allocate at steady state. The answer leaves
// through cpuDev.TxBurst, which used to make a length slice per burst —
// one heap allocation per transmitted frame on every CPU-budgeted bed.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestCPUBudgetedRoundTripZeroAllocs(t *testing.T) {
	clk := sim.NewVClock()
	bed, err := Build(Spec{
		Clk:     clk,
		Machine: MachineSpec{Name: "morello", Ports: 1},
		Compartments: []CompartmentSpec{{
			Name: "mq", Ifs: []IfSpec{{Port: 0}},
			Stack: StackSpec{Shards: 2, CPUBps: 1e9},
		}},
		Peers: []PeerSpec{{Port: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	local, peer := bed.Sharded.API(), bed.Peers[0].Env.Stk
	sfd, _ := local.Socket(fstack.SockDgram)
	if errno := local.Bind(sfd, fstack.IPv4Addr{}, 9053); errno != hostos.OK {
		t.Fatal(errno)
	}
	cfd, _ := peer.Socket(fstack.SockDgram)
	if errno := peer.Bind(cfd, fstack.IPv4Addr{}, 9054); errno != hostos.OK {
		t.Fatal(errno)
	}
	query, answer := make([]byte, 64), make([]byte, 256)
	bufL, bufP := make([]byte, 512), make([]byte, 512)
	loops := bed.Loops()

	roundTrip := func() {
		if _, errno := peer.SendTo(cfd, query, LocalIP(0), 9053); errno != hostos.OK {
			t.Fatalf("query: %v", errno)
		}
		answered := false
		for tick := 0; tick < 4000; tick++ {
			for _, l := range loops {
				l.RunOnce()
			}
			if !answered {
				if _, src, sport, errno := local.RecvFrom(sfd, bufL); errno == hostos.OK {
					if _, errno := local.SendTo(sfd, answer, src, sport); errno != hostos.OK {
						t.Fatalf("answer: %v", errno)
					}
					answered = true
				}
			}
			if n, _, _, errno := peer.RecvFrom(cfd, bufP); errno == hostos.OK {
				if n != len(answer) {
					t.Fatalf("answer truncated: %d of %d bytes", n, len(answer))
				}
				return
			}
			clk.Advance(5000)
		}
		t.Fatal("round trip stalled")
	}
	// Warm-up: ARP resolution, ring/FIFO slices and the datagram arena
	// reach steady state before counting.
	roundTrip()
	roundTrip()
	if a := testing.AllocsPerRun(200, roundTrip); a != 0 {
		t.Fatalf("CPU-budgeted round trip allocates %.2f allocs/op, want 0", a)
	}
}

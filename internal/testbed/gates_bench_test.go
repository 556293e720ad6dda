package testbed

import (
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// BenchmarkGatedWriteRefused is one gated write of a 64 KiB buffer to a
// full socket: the poll a Scenario 2 application makes on every loop
// iteration while the stack refuses it.
func BenchmarkGatedWriteRefused(b *testing.B) {
	clk := sim.NewVClock()
	small := &fstack.TCPTuning{SndBufBytes: 16 << 10, RcvBufBytes: 16 << 10}
	bed, err := Build(Spec{
		Clk:     clk,
		Machine: MachineSpec{Name: "morello", Ports: 1},
		Compartments: []CompartmentSpec{{
			Name: "stack", CVM: true, Ifs: []IfSpec{{Port: 0}},
			APIGate: true, AppCVMs: []string{"app"},
			Stack: StackSpec{Tuning: small},
		}},
		Peers: []PeerSpec{{Port: 0, Stack: StackSpec{Tuning: small}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	app, peer := bed.Apps[0], bed.Peers[0].Env.Stk
	lfd, _ := peer.Socket(fstack.SockStream)
	if errno := peer.Bind(lfd, fstack.IPv4Addr{}, 9000); errno != hostos.OK {
		b.Fatal(errno)
	}
	if errno := peer.Listen(lfd, 1); errno != hostos.OK {
		b.Fatal(errno)
	}
	fd, _ := app.Socket(fstack.SockStream)
	if errno := app.Connect(fd, PeerIP(0), 9000); errno != hostos.EINPROGRESS {
		b.Fatal(errno)
	}
	buf := make([]byte, 64<<10)
	// The peer never reads: once its window and the send buffer are full,
	// every write is refused.
	for i := 0; ; i++ {
		if i == 4000 {
			b.Fatal("the socket never filled")
		}
		pump(bed, clk, 1)
		if _, errno := app.Write(fd, buf); errno == hostos.EAGAIN && i > 200 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errno := app.Write(fd, buf); errno != hostos.EAGAIN {
			b.Fatalf("write %d to a full socket: %v", i, errno)
		}
	}
}

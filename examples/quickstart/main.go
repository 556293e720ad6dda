// Quickstart: bring up one compartmentalized network stack (DPDK +
// F-Stack inside a CHERI cVM) on a simulated Morello box, connect to
// the link partner, and bounce a message over TCP.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
)

func main() {
	// A virtual clock makes the run deterministic and instant.
	clk := sim.NewVClock()

	// Scenario 1 layout, but we only use cVM1/eth0: the whole network
	// stack runs inside a capability compartment.
	setup, err := core.NewScenario1(clk)
	if err != nil {
		log.Fatal(err)
	}
	cvm1 := setup.Envs[0]
	peer := setup.Peers[0].Env
	fmt.Printf("booted %s: stack in compartment [%#x,+%#x), capability mode %v\n",
		cvm1.Name, cvm1.CVM.Base(), cvm1.CVM.Size(), cvm1.CapMode())

	// The peer machine runs a TCP echo service in its stack's main loop:
	// OnLoop runs at the end of every iteration.
	var echoFDs []int
	papi := peer.Stk
	lfd, _ := papi.Socket(fstack.SockStream)
	papi.Bind(lfd, fstack.IPv4Addr{}, 7)
	papi.Listen(lfd, 4)
	peer.Stk.OnLoop = func(now int64) {
		if fd, _, _, errno := papi.Accept(lfd); errno == hostos.OK {
			echoFDs = append(echoFDs, fd)
		}
		buf := make([]byte, 2048)
		for _, fd := range echoFDs {
			for {
				n, errno := papi.Read(fd, buf)
				if errno != hostos.OK || n == 0 {
					break
				}
				papi.Write(fd, buf[:n])
			}
		}
	}

	// The cVM application: connect, send, await the echo.
	api := cvm1.Stk
	fd, _ := api.Socket(fstack.SockStream)
	if errno := api.Connect(fd, fstack.IP4(10, 0, 0, 2), 7); errno != hostos.EINPROGRESS {
		log.Fatalf("connect: %v", errno)
	}
	msg := []byte("hello from a CHERI compartment")
	var got []byte
	sent := false
	cvm1.Stk.OnLoop = func(now int64) {
		if !sent {
			if n, errno := api.Write(fd, msg); errno == hostos.OK && n == len(msg) {
				sent = true
			}
			return
		}
		buf := make([]byte, 256)
		if n, errno := api.Read(fd, buf); errno == hostos.OK && n > 0 {
			got = append(got, buf[:n]...)
		}
	}

	// Drive both machines in lockstep virtual time: every stack of the
	// bed is one main loop, and RunOnce is one iteration of it.
	loops := setup.Loops()
	for i := 0; i < 100000 && len(got) < len(msg); i++ {
		for _, l := range loops {
			l.RunOnce()
		}
		clk.Advance(5000)
	}
	if string(got) != string(msg) {
		log.Fatalf("echo mismatch: %q", got)
	}
	fmt.Printf("echo round trip OK: %q (%.3f ms virtual)\n", got, float64(clk.Now())/1e6)
	st := cvm1.Stk.Stats()
	fmt.Printf("stack stats: %d frames out, %d frames in\n", st.TxFrames, st.RxFrames)
}

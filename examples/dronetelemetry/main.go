// Dronetelemetry is the workload the paper's introduction motivates: a
// drone's software stack (NuttX/PX4-style) where telemetry, the network
// stack and the drivers would traditionally share one address space.
// Here the flight application runs in its own cVM (Scenario 2 layout)
// and streams MAVLink-like telemetry over UDP through the
// compartmentalized F-Stack/DPDK stack to a ground station — and a
// compromised telemetry app cannot touch the stack compartment.
//
// Run with: go run ./examples/dronetelemetry
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// mavHeartbeat builds a MAVLink-1-shaped HEARTBEAT frame (6-byte
// header + payload + crc placeholder); the protocol content is
// illustrative.
func mavHeartbeat(seq byte) []byte {
	msg := make([]byte, 6+9+2)
	msg[0] = 0xFE // STX
	msg[1] = 9    // payload length
	msg[2] = seq
	msg[3] = 1 // system id
	msg[4] = 1 // component id
	msg[5] = 0 // HEARTBEAT
	binary.LittleEndian.PutUint32(msg[6:], 0)
	msg[10] = 2 // MAV_TYPE_QUADROTOR
	return msg
}

func main() {
	clk := sim.NewVClock()
	setup, err := core.NewScenario2(clk, 1)
	if err != nil {
		log.Fatal(err)
	}
	stackEnv := setup.Envs[0]
	ground := setup.Peers[0].Env

	// Ground station: UDP listener on the MAVLink port, drained in its
	// stack's main loop.
	gapi := ground.Stk
	gfd, _ := gapi.Socket(fstack.SockDgram)
	gapi.Bind(gfd, fstack.IPv4Addr{}, 14550)
	var received [][]byte
	ground.Stk.OnLoop = func(now int64) {
		buf := make([]byte, 512)
		for {
			n, _, _, errno := gapi.RecvFrom(gfd, buf)
			if errno != hostos.OK {
				return
			}
			received = append(received, append([]byte{}, buf[:n]...))
		}
	}

	// The flight app lives in its own cVM and reaches the stack only
	// through its gated API view: every heartbeat is staged in the app's
	// window and crosses the compartment boundary on a sealed call.
	app := setup.AppCVM(0)
	fmt.Printf("drone app compartment: [%#x,+%#x); stack compartment: [%#x,+%#x)\n",
		app.Base(), app.Size(), stackEnv.CVM.Base(), stackEnv.CVM.Size())

	api := setup.Apps[0]
	ufd, _ := api.Socket(fstack.SockDgram)

	const wanted = 25
	seq := byte(0)
	nextSend := int64(0)
	flightApp := func(now int64) {
		if now >= nextSend && int(seq) < wanted {
			hb := mavHeartbeat(seq)
			if _, errno := api.SendTo(ufd, hb, fstack.IP4(10, 0, 0, 2), 14550); errno == hostos.OK {
				seq++
			}
			nextSend = now + 1_000_000 // 1 kHz telemetry
		}
	}

	// The app cVM is outside every stack's main loop: the driver steps
	// it after each round of stack iterations, as core.measure does for
	// a loop-less site.
	loops := setup.Loops()
	for i := 0; i < 200000 && len(received) < wanted; i++ {
		for _, l := range loops {
			l.RunOnce()
		}
		flightApp(clk.Now())
		clk.Advance(5000)
	}
	if len(received) < wanted {
		log.Fatalf("ground station got %d of %d heartbeats", len(received), wanted)
	}
	fmt.Printf("ground station received %d heartbeats (%.1f ms virtual)\n",
		len(received), float64(clk.Now())/1e6)

	// Now the "compromise": the telemetry app tries to scribble over the
	// network stack's compartment (e.g. to hijack the driver rings).
	err = app.Store(stackEnv.CVM.Base()+0x100, []byte("own the driver"))
	fmt.Printf("attack on the stack compartment: %v\n", err)
	if err == nil {
		log.Fatal("attack SUCCEEDED — compartmentalization failed")
	}
	fmt.Printf("attacker state: %v; telemetry stack unaffected.\n", app.State())
}

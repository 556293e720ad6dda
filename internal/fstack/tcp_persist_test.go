package fstack

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/sim"
)

// parsePureAckWindow decodes an Ethernet/IPv4/TCP frame far enough to
// report the advertised window and whether the segment carries
// payload. ok is false for anything that is not a plain TCP frame.
func parsePureAckWindow(data []byte) (wnd uint16, payloadLen int, ok bool) {
	if len(data) < 54 || binary.BigEndian.Uint16(data[12:14]) != 0x0800 {
		return 0, 0, false
	}
	ip := data[14:]
	if ip[9] != 6 { // not TCP
		return 0, 0, false
	}
	ihl := int(ip[0]&0x0f) * 4
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	tcp := ip[ihl:]
	dataOff := int(tcp[12]>>4) * 4
	return binary.BigEndian.Uint16(tcp[14:16]), totalLen - ihl - dataOff, true
}

// TestPersistTimerRecoversLostWindowUpdate is the deterministic
// zero-window deadlock regression: the receiver advertises a zero
// window, reopens it, and the hook destroys exactly that one window
// update. Before the persist timer this stalled the connection
// forever — the receiver's update logic fires once (it tracks the
// advertised window it already sent), and the sender had no timer
// running because nothing was in flight. The sender's zero-window
// probe must force a byte through and elicit a fresh ACK carrying the
// open window.
func TestPersistTimerRecoversLostWindowUpdate(t *testing.T) {
	sawZero, droppedUpdate := false, false
	e := newHookedEnv(t, func(from int, data []byte, _ int64) (int64, bool) {
		if from != 1 { // only watch receiver -> sender ACKs
			return 0, false
		}
		wnd, payload, ok := parsePureAckWindow(data)
		if !ok || payload != 0 {
			return 0, false
		}
		if wnd == 0 {
			sawZero = true
		} else if sawZero && !droppedUpdate {
			droppedUpdate = true
			return 0, true // the window update: lose it
		}
		return 0, false
	})
	// An 8 KiB receive buffer makes the window trivial to slam shut.
	e.stkB.SetTCPTuning(TCPTuning{RcvBufBytes: 8192})
	cfd, afd := e.connectPair(5001)

	payload := bytes.Repeat([]byte{0x5A}, 24*1024)
	sent := 0
	for sent < len(payload) {
		n, errno := e.stkA.Write(cfd, payload[sent:])
		if errno != hostos.OK {
			break
		}
		sent += n
	}
	// Let the transfer fill the receiver's buffer and stall: the
	// receiver application reads nothing.
	e.pumpUntil(20000, "zero window advertised", func() bool { return sawZero })

	// Drain the receiver; its single window update is destroyed by the
	// hook, so only the persist probe can restart the sender.
	var got []byte
	buf := make([]byte, 65536)
	e.pumpUntil(400000, "transfer completes past the lost update", func() bool {
		for sent < len(payload) {
			n, errno := e.stkA.Write(cfd, payload[sent:])
			if errno != hostos.OK || n == 0 {
				break
			}
			sent += n
		}
		for {
			n, errno := e.stkB.Read(afd, buf)
			if errno != hostos.OK || n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		return len(got) == len(payload)
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("stream corrupted across the zero-window stall")
	}
	if !droppedUpdate {
		t.Fatal("the window update was never dropped — test is vacuous")
	}
	st := e.stkA.Stats()
	if st.PersistProbes == 0 {
		t.Fatalf("no zero-window probes sent: %+v", st)
	}
	t.Logf("recovered via %d persist probe(s)", st.PersistProbes)
}

// TestPersistSurvivesSqueezedAckChannel is the ConnectAsym version of
// the deadlock: the reverse (ACK) channel is squeezed to a few hundred
// bytes of queue at modem rates, so window updates race the backlog of
// ordinary ACKs and some are tail-dropped. A slow reader then opens
// and closes the window repeatedly; every lost update is a would-be
// deadlock that only the persist timer clears. The forward direction
// is clean, so any stall is the reverse path's doing.
func TestPersistSurvivesSqueezedAckChannel(t *testing.T) {
	clk := sim.NewVClock()
	stkA, cardA := buildMachine(t, clk, "0000:03:00", 1, IP4(10, 0, 0, 1), false)
	stkB, cardB := buildMachine(t, clk, "0000:04:00", 2, IP4(10, 0, 0, 2), false)
	netem.ConnectAsym(clk, cardA.Port(0), cardB.Port(0),
		netem.Config{}, // clean data direction
		netem.Config{RateBps: 100e3, QueueBytes: 150, Seed: 7})
	// Slow-ACK serialization means ms-scale ACK delays; keep the RTO
	// off the sender's back so the reverse path is the only villain.
	stkA.SetTCPTuning(TCPTuning{RTOMinNS: 100e6})
	stkB.SetTCPTuning(TCPTuning{RcvBufBytes: 8192, RTOMinNS: 100e6})
	e := &testEnv{t: t, clk: clk, stkA: stkA, stkB: stkB}
	cfd, afd := e.connectPair(5001)

	payload := bytes.Repeat([]byte{0xC3}, 64*1024)
	sent := 0
	var got []byte
	buf := make([]byte, 65536)
	probesSeen := uint64(0)
	probes := func() uint64 {
		return e.stkA.Stats().PersistProbes
	}
	e.pumpUntil(3_000_000, "transfer completes over the squeezed ACK channel", func() bool {
		for sent < len(payload) {
			n, errno := e.stkA.Write(cfd, payload[sent:])
			if errno != hostos.OK || n == 0 {
				break
			}
			sent += n
		}
		// The receiver reads only once the sender has been driven to a
		// zero-window probe: at that instant the probe's rejection ACK
		// is still serializing through the squeezed channel, so the
		// window update the read triggers meets a full queue and is
		// tail-dropped — the deadlock the next probe must clear. The
		// last buffer-full of the stream drains freely: the sender is
		// out of data there, so no probe can announce it.
		p := probes()
		if p > probesSeen || len(payload)-len(got) <= 8192 {
			probesSeen = p
			for {
				n, errno := e.stkB.Read(afd, buf)
				if errno != hostos.OK || n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
		}
		return len(got) == len(payload)
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("stream corrupted over the squeezed ACK channel")
	}
	st := e.stkA.Stats()
	t.Logf("sender: %s, %d persist probes", st.RecoverySummary(), st.PersistProbes)
	if st.PersistProbes == 0 {
		t.Fatalf("squeezed ACK channel never exercised the persist timer: %+v", st)
	}
}

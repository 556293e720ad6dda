package fstack

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hostos"
	"repro/internal/obs"
)

// TestTCPSimultaneousClose closes both ends in the same tick, so the
// FINs cross. Close enters FIN_WAIT_1 at once (RFC 793's CLOSE), even
// with data still queued: when A's FIN waits behind 64 KiB, B's FIN
// reaches A first, and both ends still pass through TIME_WAIT.
func TestTCPSimultaneousClose(t *testing.T) {
	for _, tc := range []struct {
		name   string
		queued int // bytes A writes just before its Close
		walkA  string
		walkB  string
	}{
		{"FINs cross", 0,
			"FIN_WAIT_1 CLOSING TIME_WAIT CLOSED", "FIN_WAIT_1 CLOSING TIME_WAIT CLOSED"},
		{"A closes with 64 KiB queued", 64 << 10,
			"FIN_WAIT_1 CLOSING TIME_WAIT CLOSED", "FIN_WAIT_1 FIN_WAIT_2 TIME_WAIT CLOSED"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, false)
			cfd, afd := e.connectPair(5001)
			walkA, walkB := stateWalk(e.stkA), stateWalk(e.stkB)
			if tc.queued > 0 {
				if n, errno := e.stkA.Write(cfd, make([]byte, tc.queued)); errno != hostos.OK || n != tc.queued {
					t.Fatalf("write: %d, %v", n, errno)
				}
			}
			e.stkA.Close(cfd)
			e.stkB.Close(afd)
			e.pumpUntil(60000, "both tables drained", func() bool {
				return e.stkA.conns.n == 0 && e.stkB.conns.n == 0
			})
			if got := walkA(); got != tc.walkA {
				t.Errorf("A went %s, want %s", got, tc.walkA)
			}
			if got := walkB(); got != tc.walkB {
				t.Errorf("B went %s, want %s", got, tc.walkB)
			}
		})
	}
}

// stateWalk records every state the stack's connections enter from now
// on; the returned func lists them in order.
func stateWalk(s *Stack) func() string {
	edges := stateEdges(s)
	return func() string {
		var walk []string
		for _, e := range edges() {
			walk = append(walk, e[1].String())
		}
		return strings.Join(walk, " ")
	}
}

// stateEdges records every state change of the stack's connections from
// now on; the returned func lists them in order as from/to pairs, or nil
// once the recorder has overwritten any.
func stateEdges(s *Stack) func() [][2]tcpState {
	tr := obs.NewTrace(1 << 14)
	s.SetObs(tr, nil, 0)
	return func() [][2]tcpState {
		if tr.Total() > uint64(tr.Len()) {
			return nil
		}
		var edges [][2]tcpState
		for _, ev := range tr.Snapshot() {
			if ev.Type == obs.EvTCPState {
				edges = append(edges, [2]tcpState{tcpState(ev.A), tcpState(ev.B)})
			}
		}
		return edges
	}
}

func TestTCPWriteAfterCloseFails(t *testing.T) {
	e := newEnv(t, false)
	cfd, _ := e.connectPair(5001)
	e.stkA.Close(cfd)
	// The fd is gone immediately (close releases the descriptor).
	if _, errno := e.stkA.Write(cfd, []byte("x")); errno != hostos.EBADF {
		t.Fatalf("write after close: %v", errno)
	}
}

func TestTCPHalfClose(t *testing.T) {
	// A closes; B can still send until it closes too.
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	e.stkA.Close(cfd)
	// Even while A's FIN is in flight, B pushes data. A's socket is
	// closed at the API level, but B must not error.
	msg := []byte("late data from the passive side")
	e.pumpUntil(8000, "B write", func() bool {
		n, errno := e.stkB.Write(afd, msg)
		return errno == hostos.OK && n == len(msg)
	})
	e.pumpUntil(8000, "B sees EOF", func() bool {
		n, errno := e.stkB.Read(afd, make([]byte, 16))
		return errno == hostos.OK && n == 0
	})
}

// TestFinWait2DropsASilentPeer: once its FIN is acked a closed end waits
// in FIN_WAIT_2 for the peer's. Every segment from the peer restarts the
// wait, so a peer that writes every 30 ms keeps it well past 2MSL; 2MSL
// (timeWaitDur) of silence then drops it without a segment and counts it
// in FinWait2Drops, and the peer's next write is reset.
func TestFinWait2DropsASilentPeer(t *testing.T) {
	s := newScript(t)
	fd := -1
	s.run(s.opened(&fd, 0)...)
	c := s.stk.sockOf(fd).conn
	s.run(
		line{at: 2e6, call: func() { s.stk.Close(fd) }},
		line{at: 3e6, out: &pkt{flags: TCPFin | TCPAck, seq: 1, ack: 1, win: maxRcvWnd}},
		line{at: 3e6, in: &pkt{flags: TCPAck, seq: 1, ack: 2, win: 65535}},
	)
	heard := int64(3e6) // when the peer's last segment arrived
	for i := range uint32(4) {
		s.until(heard + 1)
		if c.state != tcpFinWait2 {
			t.Fatalf("%v after %d of the peer's segments, want FIN_WAIT_2", c.state, i)
		}
		heard += 30e6
		s.run(
			line{at: heard, in: &pkt{flags: TCPAck, seq: 1 + i, ack: 2, n: 1, win: 65535}},
			line{at: heard + 1e6, out: &pkt{flags: TCPAck, seq: 2, ack: 2 + i, win: maxRcvWnd}},
		)
	}
	if c.state != tcpFinWait2 || c.rtxAt != heard+timeWaitDur {
		t.Fatalf("%v with its deadline %d ns after the peer's last segment, want FIN_WAIT_2 and %d", c.state, c.rtxAt-heard, int64(timeWaitDur))
	}
	tx := s.stk.Stats().TxFrames
	s.until(heard + timeWaitDur)
	if st := s.stk.Stats(); c.state != tcpClosed || s.stk.conns.n != 0 || st.FinWait2Drops != 1 || st.TxFrames != tx {
		t.Fatalf("2MSL after the peer's last segment: %v, %d conns, %d FIN_WAIT_2 drops, %d frames sent; want CLOSED, 0, 1, 0",
			c.state, s.stk.conns.n, st.FinWait2Drops, st.TxFrames-tx)
	}
	// The peer's next write is reset.
	s.run(
		line{at: heard + timeWaitDur + 1e6, in: &pkt{flags: TCPAck, seq: 5, ack: 2, n: 4, win: 65535}},
		line{at: heard + timeWaitDur + 2e6, out: &pkt{flags: TCPRst, seq: 2}},
	)
}

// TestOutOfWindowRstIsDropped: a connection takes a RST only at a
// sequence number inside its receive window, rcvNxt ≤ seq <
// rcvNxt+window (RFC 9293 §3.10.7.4). RSTs at the window's right edge
// and one below rcvNxt are dropped and counted in BadRsts, and the flow
// still moves bytes both ways; a RST at rcvNxt resets it.
func TestOutOfWindowRstIsDropped(t *testing.T) {
	s := newScript(t)
	fd := -1
	s.run(s.opened(&fd, 0)...)
	s.run(
		line{at: 2e6, in: &pkt{flags: TCPRst, seq: 1 + maxRcvWnd}},
		line{at: 2e6, in: &pkt{flags: TCPRst, seq: 0}},
		line{at: 3e6, in: &pkt{flags: TCPAck, seq: 1, ack: 1, n: 100, win: 65535}},
		line{at: 4e6, out: &pkt{flags: TCPAck, seq: 1, ack: 101, win: maxRcvWnd}},
		line{at: 4e6, call: func() {
			if n, errno := s.stk.Read(fd, make([]byte, 200)); n != 100 || errno != hostos.OK {
				t.Fatalf("read %d, %v; want the peer's 100 bytes", n, errno)
			}
			s.stk.Write(fd, []byte("still here"))
		}},
		line{at: 5e6, out: &pkt{flags: TCPPsh | TCPAck, seq: 1, ack: 101, n: 10, win: maxRcvWnd}},
	)
	if st := s.stk.Stats(); st.BadRsts != 2 || s.stk.ConnState(fd) != "ESTABLISHED" {
		t.Fatalf("%d RSTs refused, state %s; want 2, ESTABLISHED", st.BadRsts, s.stk.ConnState(fd))
	}
	s.run(line{at: 6e6, in: &pkt{flags: TCPRst, seq: 101}})
	s.until(6e6)
	if _, errno := s.stk.Read(fd, make([]byte, 1)); errno != hostos.ECONNRESET || s.stk.Stats().BadRsts != 2 {
		t.Fatalf("after a RST at rcvNxt: read %v, %d RSTs refused; want ECONNRESET, 2", errno, s.stk.Stats().BadRsts)
	}
}

func TestTCPRstOnDataToClosedPort(t *testing.T) {
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	// Forcibly remove B's conn (simulates a crashed process); A's next
	// data must be RST'd.
	for c := range e.stkB.conns.all() {
		e.stkB.removeConn(c)
	}
	e.stkB.fds.del(afd)
	e.stkA.Write(cfd, []byte("into the void"))
	e.pumpUntil(8000, "reset", func() bool {
		_, errno := e.stkA.Read(cfd, make([]byte, 4))
		return errno == hostos.ECONNRESET
	})
}

func TestTCPZeroWindowRecovery(t *testing.T) {
	// Fill B's receive buffer (app not reading); the window closes; when
	// the app drains, a window update reopens the flow.
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	payload := bytes.Repeat([]byte{0x7E}, 2*1024*1024) // > sndbuf+rcvbuf, forces a closed window
	sent := 0
	stalled := 0
	for i := 0; i < 60000 && sent < len(payload); i++ {
		n, errno := e.stkA.Write(cfd, payload[sent:min(sent+16384, len(payload))])
		if errno == hostos.OK {
			sent += n
		} else {
			stalled++
		}
		e.tick()
		if stalled > 200 {
			break // sender blocked on a closed window: expected
		}
	}
	if stalled == 0 {
		t.Fatal("the flow never hit backpressure — window logic untested")
	}
	// Drain and confirm the transfer completes.
	st := &stream{from: e.stkA, to: e.stkB, wfd: cfd, rfd: afd, payload: payload, sent: sent}
	e.pumpUntil(120000, "drain completes", st.pump)
}

// TestTCPDuplicateSynHandled: a SYN again on an established connection
// neither resets it nor makes a second one, and the stream goes on. (It
// draws no challenge ACK: RFC 5961's is not implemented.)
func TestTCPDuplicateSynHandled(t *testing.T) {
	s := newScript(t)
	fd := -1
	s.run(append(s.opened(&fd, 0),
		line{at: 2e6, in: &pkt{flags: TCPSyn, win: 65535, mss: MSSDefault, sackOK: true}},
		line{at: 3e6, in: &pkt{flags: TCPAck, seq: 1, ack: 1, n: 10, win: 65535}},
		line{at: 4e6, out: &pkt{flags: TCPAck, seq: 1, ack: 11, win: maxRcvWnd}},
	)...)
	if n := s.stk.conns.n; n != 1 || s.stk.ConnState(fd) != "ESTABLISHED" {
		t.Fatalf("%d conns, state %s after a duplicate SYN; want 1, ESTABLISHED", n, s.stk.ConnState(fd))
	}
}

// Property: the TCP stream preserves arbitrary write patterns (size
// 1..9000 bytes) end to end, across segmentation boundaries.
func TestQuickTCPStreamIntegrity(t *testing.T) {
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	var hashIn, hashOut uint64
	pending := 0

	write := func(chunk []byte) {
		sent := 0
		e.pumpUntil(40000, "chunk write", func() bool {
			for sent < len(chunk) {
				n, errno := e.stkA.Write(cfd, chunk[sent:])
				if errno == hostos.EAGAIN {
					// drain a bit
					buf := make([]byte, 32768)
					for {
						n, errno := e.stkB.Read(afd, buf)
						if errno != hostos.OK || n == 0 {
							break
						}
						for _, by := range buf[:n] {
							hashOut = hashOut*1099511628211 ^ uint64(by)
						}
						pending -= n
					}
					return false
				}
				if errno != hostos.OK {
					t.Fatalf("write: %v", errno)
				}
				sent += n
			}
			return true
		})
		for _, by := range chunk {
			hashIn = hashIn*1099511628211 ^ uint64(by)
		}
		pending += len(chunk)
	}

	f := func(sizes []uint16, seed byte) bool {
		for i, sz := range sizes {
			n := int(sz)%9000 + 1
			chunk := make([]byte, n)
			for j := range chunk {
				chunk[j] = seed + byte(i) + byte(j)
			}
			write(chunk)
		}
		// Drain everything still in flight.
		buf := make([]byte, 32768)
		e.pumpUntil(120000, "drain", func() bool {
			for {
				n, errno := e.stkB.Read(afd, buf)
				if errno != hostos.OK || n == 0 {
					break
				}
				for _, by := range buf[:n] {
					hashOut = hashOut*1099511628211 ^ uint64(by)
				}
				pending -= n
			}
			return pending == 0
		})
		return hashIn == hashOut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeAgreesAcrossTunings opens a connection from a client to
// a listener, each tuned for SACK and window scaling or left at the
// default, in all four pairings. Both ends must agree on what the
// handshake negotiated, and no segment from the listener may pull its
// right window edge (ack + window<<shift) below the edge its SYN|ACK
// advertised (RFC 9293 §3.8.6.2.2). A listener tuned to scale used to
// offer an unscaled client 65 535 on the SYN|ACK and 57 344 after it.
func TestHandshakeAgreesAcrossTunings(t *testing.T) {
	tuned := TCPTuning{SACK: true, WindowScale: 7}
	for _, tc := range []struct {
		name             string
		listener, client TCPTuning
	}{
		{"both tuned", tuned, tuned},
		{"tuned listener, untuned client", tuned, TCPTuning{}},
		{"untuned listener, tuned client", TCPTuning{}, tuned},
		{"both untuned", TCPTuning{}, TCPTuning{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &scriptWire{record: true}
			e := newRig(t, false, w.attach)
			if err := e.stkB.SetTCPTuning(tc.listener); err != nil {
				t.Fatal(err)
			}
			if err := e.stkA.SetTCPTuning(tc.client); err != nil {
				t.Fatal(err)
			}
			cfd, afd := e.connectPair(5001)
			payload := bytes.Repeat([]byte{0x5A}, 64<<10)
			if got := sendAll(e, cfd, afd, payload, 20000); !bytes.Equal(got, payload) {
				t.Fatal("stream corrupted")
			}

			cli, srv := e.stkA.sockOf(cfd).conn, e.stkB.sockOf(afd).conn
			scaled := tc.listener.WindowScale > 0 && tc.client.WindowScale > 0
			want := struct {
				sackOK         bool
				cliRcv, srvRcv uint8
			}{sackOK: tc.listener.SACK && tc.client.SACK}
			if scaled {
				want.cliRcv, want.srvRcv = tc.client.WindowScale, tc.listener.WindowScale
			}
			if cli.sndMSS != MaxSegData || srv.sndMSS != MaxSegData ||
				cli.sackOK != want.sackOK || srv.sackOK != want.sackOK ||
				cli.rcvWScale != want.cliRcv || srv.sndWScale != want.cliRcv ||
				srv.rcvWScale != want.srvRcv || cli.sndWScale != want.srvRcv {
				t.Fatalf("client MSS %d, SACK %v, shifts %d/%d (send/receive); listener MSS %d, SACK %v, shifts %d/%d; want MSS %d, SACK %v, client shift %d, listener shift %d on both ends",
					cli.sndMSS, cli.sackOK, cli.sndWScale, cli.rcvWScale, srv.sndMSS, srv.sackOK, srv.sndWScale, srv.rcvWScale,
					MaxSegData, want.sackOK, want.cliRcv, want.srvRcv)
			}

			var fromListener []TCPHeader
			for _, f := range w.segs(1) {
				fromListener = append(fromListener, f.h)
			}
			if len(fromListener) < 2 {
				t.Fatalf("the listener sent %d segments; want its SYN|ACK and more", len(fromListener))
			}
			if fromListener[0].Flags != TCPSyn|TCPAck {
				t.Fatalf("the listener's first segment has flags %#x; want its SYN|ACK", fromListener[0].Flags)
			}
			synAck := fromListener[0]
			edge := synAck.Ack + uint32(synAck.Window)
			for i, h := range fromListener[1:] {
				if got := h.Ack + uint32(h.Window)<<srv.rcvWScale; seqLT(got, edge) {
					t.Fatalf("listener segment %d (ack %d, window %d<<%d) puts the right edge %d bytes below its SYN|ACK's (window %d)",
						i+1, h.Ack, h.Window, srv.rcvWScale, edge-got, synAck.Window)
				}
			}
		})
	}
}

// TestTinyMSSOptionIsRaised: a SYN or SYN|ACK whose MSS option leaves
// no payload past the timestamps option (12 bytes, or 1) is raised to
// minMSS on either open, so the end that heard it sends its stream in
// segments of minMSS less the option, and closes. Taken as offered, such
// an MSS left a send MSS of 0 or below: a connection that never sent,
// and a congestion window an RTO cut to 0 that the next ACK divided by.
func TestTinyMSSOptionIsRaised(t *testing.T) {
	for _, tc := range []struct {
		name string
		from int // the end whose SYN carries the tiny option
		mss  uint16
	}{
		{"passive open, MSS 12", 0, 12},
		{"passive open, MSS 1", 0, 1},
		{"active open, MSS 12", 1, 12},
		{"active open, MSS 1", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Rewrite the MSS option of every SYN end tc.from sends.
			setMSS := func(f *wireFrame) {
				seg := f.data[EthHeaderLen+IPv4HeaderLen:]
				opts := seg[TCPHeaderLen : int(seg[12]>>4)*4]
				for i := 0; i+1 < len(opts) && opts[i] != 0; {
					if opts[i] == 1 {
						i++
						continue
					}
					if opts[i] == 2 {
						binary.BigEndian.PutUint16(opts[i+2:], tc.mss)
					}
					i += int(opts[i+1])
				}
			}
			e := newRig(t, false, (&scriptWire{rules: []*wireRule{{from: 1 << tc.from, flags: TCPSyn, edit: setMSS}}}).attach)
			cfd, afd := e.connectPair(5003)
			stks, fds := [2]*Stack{e.stkA, e.stkB}, [2]int{cfd, afd}
			tx, rx := 1-tc.from, tc.from
			if got := stks[tx].sockOf(fds[tx]).conn.sndMSS; got != minMSS-tsOptionLen {
				t.Fatalf("send MSS %d after an MSS option of %d; want %d", got, tc.mss, minMSS-tsOptionLen)
			}

			st := &stream{from: stks[tx], to: stks[rx], wfd: fds[tx], rfd: fds[rx], payload: bytes.Repeat([]byte{0xA5}, 16<<10)}
			e.pumpUntil(20000, "transfer completes", st.pump)
			if !bytes.Equal(st.got, st.payload) {
				t.Fatal("stream corrupted")
			}
			stks[tx].Close(fds[tx])
			stks[rx].Close(fds[rx])
			e.pumpUntil(20000, "both ends closed", func() bool {
				for _, s := range stks {
					for c := range s.conns.all() {
						if c.state != tcpTimeWait {
							return false
						}
					}
				}
				return true
			})
		})
	}
}

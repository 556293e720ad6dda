package testbed

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cheri"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// refStage and refWrite are the gated write as it was before it asked the
// stack how much it would load: every crossing stages its whole chunk,
// compared with what the staging area holds and stored on any difference.
// They are the reference TestGatedWriteStagesOnlyWhatTheStackLoads holds
// GatedAPI.Write to.
func refStage(a *GatedAPI, off int, src []byte) (cheri.Cap, hostos.Errno) {
	at := stageWriteOff + uint64(off)
	addr := a.App.Base() + at
	staged := make([]byte, len(src))
	if err := a.App.Load(addr, staged); err != nil || !bytes.Equal(staged, src) {
		if err := a.App.Store(addr, src); err != nil {
			return cheri.NullCap, hostos.EFAULT
		}
	}
	buf, err := a.stageCap(at, len(src))
	if err != nil {
		return cheri.NullCap, hostos.EFAULT
	}
	return buf, hostos.OK
}

func refWrite(a *GatedAPI, fd int, src []byte) (int, hostos.Errno) {
	if len(src) == 0 || len(src) > StageWriteSize {
		return -1, hostos.EINVAL
	}
	sent := 0
	for sent < len(src) {
		chunk := src[sent:min(sent+stageChunk, len(src))]
		buf, errno := refStage(a, sent, chunk)
		if errno != hostos.OK {
			return -1, errno
		}
		r, errno := a.G.write.Call(a.App, hostos.Args{uint64(fd), uint64(len(chunk))}, buf)
		if errno != hostos.OK {
			if sent > 0 {
				break
			}
			return int(r), errno
		}
		sent += int(r)
		if int(r) < len(chunk) {
			break
		}
	}
	a.App.Book(sim.CopyNS(sent))
	return sent, hostos.OK
}

// wireStreams reassembles, from the frames the peer's port receives, the
// payload of every TCP connection toward the peer, keyed by its local
// port: byte i is the byte at sequence ISN+1+i. A retransmitted byte that
// differs from its first copy is counted as a conflict.
type wireStreams struct {
	isn       map[uint16]uint32
	data      map[uint16][]byte
	have      map[uint16][]bool
	conflicts int
}

func newWireStreams() *wireStreams {
	return &wireStreams{isn: map[uint16]uint32{}, data: map[uint16][]byte{}, have: map[uint16][]bool{}}
}

func (w *wireStreams) tap(_ int64, frame []byte) {
	if eth, err := fstack.ParseEthHeader(frame); err != nil || eth.Type != fstack.EtherTypeIPv4 {
		return
	}
	pkt := frame[fstack.EthHeaderLen:]
	ip, ihl, err := fstack.ParseIPv4Header(pkt)
	if err != nil || ip.Proto != fstack.ProtoTCP {
		return
	}
	seg := pkt[ihl:ip.TotalLen]
	if len(seg) < fstack.TCPHeaderLen {
		return
	}
	sport, seq := binary.BigEndian.Uint16(seg[0:2]), binary.BigEndian.Uint32(seg[4:8])
	off, flags := int(seg[12]>>4)*4, seg[13]
	if flags&fstack.TCPSyn != 0 {
		w.isn[sport] = seq
		return
	}
	at, payload := int(seq-w.isn[sport]-1), seg[off:]
	data, have := w.data[sport], w.have[sport]
	for len(data) < at+len(payload) {
		data, have = append(data, 0), append(have, false)
	}
	for i, b := range payload {
		if have[at+i] && data[at+i] != b {
			w.conflicts++
		}
		data[at+i], have[at+i] = b, true
	}
	w.data[sport], w.have[sport] = data, have
}

// stream is the contiguous payload seen on the connection from sport.
func (w *wireStreams) stream(sport uint16) []byte {
	n := slices.Index(w.have[sport], false)
	if n < 0 {
		n = len(w.have[sport])
	}
	return w.data[sport][:n]
}

// gatedWriteRun is what one pass of the write script observed.
type gatedWriteRun struct {
	results   []string          // each write's state, count and errno
	took      map[uint16][]byte // per local port, the bytes writes returned as taken
	wire      *wireStreams
	crossings uint64
}

// gatedWriteScript drives two gated stream connections from an app cVM to
// a peer through every state a write meets — connecting, a lazily
// unbacked send buffer, established, full, after the peer's FIN, crashed —
// with write as the app's ff_write. The buffer is refilled in place
// before every call, and the whole write staging area is filled with a
// marker that no payload byte equals: a byte staged stale would reach the
// wire as the marker or as an earlier call's byte.
func gatedWriteScript(t *testing.T, shards int, write func(*GatedAPI, int, []byte) (int, hostos.Errno)) gatedWriteRun {
	t.Helper()
	clk := sim.NewVClock()
	small := &fstack.TCPTuning{SndBufBytes: 16 << 10, RcvBufBytes: 16 << 10}
	bed, err := Build(Spec{
		Clk:     clk,
		Machine: MachineSpec{Name: "morello", Ports: 1},
		Compartments: []CompartmentSpec{{
			Name: "stack", CVM: true, Ifs: []IfSpec{{Port: 0}},
			APIGate: true, AppCVMs: []string{"app"},
			Stack: StackSpec{Shards: shards, Tuning: small},
		}},
		Peers: []PeerSpec{{Port: 0, Stack: StackSpec{Tuning: small}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, peer := bed.Apps[0], bed.Peers[0].Env.Stk
	run := gatedWriteRun{took: map[uint16][]byte{}, wire: newWireStreams()}
	bed.Peers[0].M.Card.Port(0).SetRxTap(run.wire.tap)

	const peerPort = 9000
	plfd, _ := peer.Socket(fstack.SockStream)
	if errno := cmp.Or(peer.Bind(plfd, fstack.IPv4Addr{}, peerPort), peer.Listen(plfd, 4)); errno != hostos.OK {
		t.Fatalf("peer listener: %v", errno)
	}
	marker := bytes.Repeat([]byte{0xFF}, StageWriteSize)
	buf := make([]byte, 40000)
	calls := 0
	w := func(state string, fd int, sport uint16, n int) hostos.Errno {
		t.Helper()
		calls++
		for i := range buf {
			buf[i] = 'a' + byte((i+calls)%26)
		}
		if err := app.App.Store(app.App.Base()+stageWriteOff, marker); err != nil {
			t.Fatal(err)
		}
		r, errno := write(app, fd, buf[:n])
		if errno == hostos.OK {
			run.took[sport] = append(run.took[sport], buf[:r]...)
		}
		run.results = append(run.results, fmt.Sprintf("%s: %d %v", state, r, errno))
		return errno
	}
	// dial opens a connection from sport, writing once while it connects,
	// and returns the app's and the peer's descriptors once established.
	dial := func(sport uint16) (int, int) {
		t.Helper()
		fd, errno := app.Socket(fstack.SockStream)
		if errno == hostos.OK {
			errno = app.Bind(fd, fstack.IPv4Addr{}, sport)
		}
		if errno != hostos.OK {
			t.Fatalf("app socket: %v", errno)
		}
		if errno := app.Connect(fd, PeerIP(0), peerPort); errno != hostos.EINPROGRESS {
			t.Fatalf("app connect: %v", errno)
		}
		if errno := w("connecting", fd, sport, 1000); errno != hostos.EAGAIN {
			t.Fatalf("a write while connecting: %v, want EAGAIN", errno)
		}
		pfd, errno := -1, hostos.EAGAIN
		for i := 0; i < 400 && errno == hostos.EAGAIN; i++ {
			pump(bed, clk, 1)
			pfd, _, _, errno = peer.Accept(plfd)
		}
		if errno != hostos.OK {
			t.Fatalf("peer accept: %v", errno)
		}
		return fd, pfd
	}
	rbuf := make([]byte, 64<<10)
	// drain lets the peer read for ticks driver ticks.
	drain := func(pfd, ticks int) {
		for i := 0; i < ticks; i++ {
			pump(bed, clk, 1)
			for {
				if n, errno := peer.Read(pfd, rbuf); errno != hostos.OK || n == 0 {
					break
				}
			}
		}
	}

	fd, pfd := dial(5001)
	w("lazily unbacked", fd, 5001, 40000)
	w("full", fd, 5001, 40000)
	w("full", fd, 5001, 300)
	for _, ticks := range []int{1, 3, 10, 200} {
		drain(pfd, ticks)
		w("established", fd, 5001, 40000)
		w("full", fd, 5001, 40000)
	}
	drain(pfd, 200)
	peer.Close(pfd)
	eof := false
	for i := 0; i < 400 && !eof; i++ {
		pump(bed, clk, 1)
		n, errno := app.Read(fd, rbuf)
		eof = errno == hostos.OK && n == 0
	}
	if !eof {
		t.Fatal("the peer's FIN never reached the app")
	}
	w("after the peer's FIN", fd, 5001, 3000)
	pump(bed, clk, 200)
	w("after the peer's FIN", fd, 5001, 3000)

	fd2, pfd2 := dial(5003)
	w("established", fd2, 5003, 5000)
	drain(pfd2, 200)
	for _, stk := range bed.Envs[0].Stacks() {
		stk.Crash()
	}
	w("crashed", fd2, 5003, 5000)
	w("crashed", fd, 5001, 5000)
	run.crossings = bed.Local.IV.Crossings.Load()
	return run
}

// TestGatedWriteStagesOnlyWhatTheStackLoads: Write stages only the bytes
// WriteRoom bounds, so the rest of each offered chunk is whatever the
// staging area held. The stack must load none of it: on the single stack
// and on the 2-shard API, every byte on the wire is the byte the app wrote
// there, and every write returns, takes and crosses exactly as the
// compare-and-store reference does.
func TestGatedWriteStagesOnlyWhatTheStackLoads(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			got := gatedWriteScript(t, shards, (*GatedAPI).Write)
			ref := gatedWriteScript(t, shards, refWrite)
			if testing.Verbose() {
				for _, r := range got.results {
					t.Log(r)
				}
			}
			if !slices.Equal(got.results, ref.results) {
				t.Fatalf("writes returned\n%v\nthe reference\n%v", got.results, ref.results)
			}
			if got.crossings != ref.crossings {
				t.Fatalf("%d crossings, the reference %d", got.crossings, ref.crossings)
			}
			for _, sport := range []uint16{5001, 5003} {
				took, wire := got.took[sport], got.wire.stream(sport)
				if len(took) == 0 || !bytes.Equal(wire, took) || got.wire.conflicts != 0 {
					t.Fatalf("port %d: the app's writes took %d bytes, the wire carried %d (%d conflicting copies); first difference at %d",
						sport, len(took), len(wire), got.wire.conflicts, diffAt(wire, took))
				}
				if !bytes.Equal(ref.wire.stream(sport), wire) {
					t.Fatalf("port %d: the wire differs from the reference's", sport)
				}
			}
			for _, state := range []string{"lazily unbacked", "full", "established", "after the peer's FIN", "crashed"} {
				if !slices.ContainsFunc(got.results, func(r string) bool { return strings.HasPrefix(r, state+":") }) {
					t.Fatalf("the script never wrote in state %q", state)
				}
			}
		})
	}
}

// diffAt is the first index where a and b differ.
func diffAt(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

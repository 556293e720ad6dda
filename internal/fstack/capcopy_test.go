package fstack

import (
	"bytes"
	"testing"

	"repro/internal/cheri"
	"repro/internal/hostos"
)

// appBufBase is where appMem places an application buffer: outside the
// stack's segment, in memory of its own, as a gate target sees it.
const appBufBase = 0x1000

// appMem returns an application memory and a data capability over its
// first size bytes at appBufBase.
func appMem(t *testing.T, size uint64) (*cheri.TMem, cheri.Cap) {
	t.Helper()
	mem := cheri.NewTMem(1 << 20)
	c, err := mem.Root().SetAddr(appBufBase).SetBounds(size)
	if err != nil {
		t.Fatal(err)
	}
	if c, err = c.AndPerms(cheri.PermData); err != nil {
		t.Fatal(err)
	}
	return mem, c
}

// buffered reports the received bytes waiting on a connection.
func buffered(s *Stack, fd int) int { return s.sockOf(fd).conn.rcvBuf.Len() }

// TestCapCopiesRoundTrip: bytes loaded through one capability by
// WriteCap arrive, and ReadCap stores them through another.
func TestCapCopiesRoundTrip(t *testing.T) {
	e := newEnv(t, true)
	cfd, afd := e.connectPair(5001)
	mem, buf := appMem(t, 64)
	msg := []byte("capability transfer!")
	if err := mem.Store(mem.Root(), appBufBase, msg); err != nil {
		t.Fatal(err)
	}
	if n, errno := e.stkA.WriteCap(cfd, mem, buf, len(msg)); n != len(msg) || errno != hostos.OK {
		t.Fatalf("WriteCap: %d %v", n, errno)
	}
	e.pumpUntil(200, "bytes arrive", func() bool { return buffered(e.stkB, afd) >= len(msg) })
	out := buf.SetAddr(appBufBase + 32)
	if n, errno := e.stkB.ReadCap(afd, mem, out, 32); n != len(msg) || errno != hostos.OK {
		t.Fatalf("ReadCap: %d %v", n, errno)
	}
	got := make([]byte, len(msg))
	if err := mem.Load(mem.Root(), appBufBase+32, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("cap round trip: %q", got)
	}
}

// TestWriteCapFaultStoresNothing: a capability short of the bytes asked
// for, or without load permission, is EFAULT, and the call leaves the
// send buffer and the wire as they were.
func TestWriteCapFaultStoresNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  func(cheri.Cap) (cheri.Cap, error)
	}{
		{"short", func(c cheri.Cap) (cheri.Cap, error) { return c.SetBounds(8) }},
		{"no_load", func(c cheri.Cap) (cheri.Cap, error) { return c.AndPerms(cheri.PermStore) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, true)
			cfd, _ := e.connectPair(5001)
			mem, buf := appMem(t, 64)
			buf, err := tc.cap(buf)
			if err != nil {
				t.Fatal(err)
			}
			room, tx := e.stkA.WriteRoom(cfd), e.stkA.Stats().TxFrames
			if n, errno := e.stkA.WriteCap(cfd, mem, buf, 16); errno != hostos.EFAULT {
				t.Fatalf("WriteCap: %d %v, want EFAULT", n, errno)
			}
			if got := e.stkA.WriteRoom(cfd); got != room {
				t.Fatalf("WriteRoom %d after the fault, was %d", got, room)
			}
			if got := e.stkA.Stats().TxFrames; got != tx {
				t.Fatalf("%d frames left on a faulted write", got-tx)
			}
		})
	}
}

// TestWriteCapFaultOnWrappedRing: a write the send ring takes in two
// pieces, through a capability that covers only the first, is refused
// whole. (A per-piece check once queued the first piece and still
// returned EFAULT.)
func TestWriteCapFaultOnWrappedRing(t *testing.T) {
	e := newEnv(t, true)
	e.stkA.SetTCPTuning(TCPTuning{SndBufBytes: 4096})
	cfd, _ := e.connectPair(5001)
	// Move the write point to 3000 bytes into the ring and let the
	// peer acknowledge it, so the next 2000 bytes wrap.
	if n, errno := e.stkA.Write(cfd, make([]byte, 3000)); n != 3000 || errno != hostos.OK {
		t.Fatalf("Write: %d %v", n, errno)
	}
	e.pumpUntil(500, "send buffer acknowledged", func() bool { return e.stkA.WriteRoom(cfd) == 4096 })
	mem, buf := appMem(t, 1500)
	tx := e.stkA.Stats().TxFrames
	if n, errno := e.stkA.WriteCap(cfd, mem, buf, 2000); errno != hostos.EFAULT {
		t.Fatalf("WriteCap: %d %v, want EFAULT", n, errno)
	}
	if got := e.stkA.WriteRoom(cfd); got != 4096 {
		t.Fatalf("WriteRoom %d after the fault: the first piece was queued", got)
	}
	if got := e.stkA.Stats().TxFrames; got != tx {
		t.Fatalf("%d frames left on a faulted write", got-tx)
	}
}

// TestReadCapFaultTakesNothing: a capability short of the bytes a read
// takes, or without store permission, is EFAULT and leaves them queued.
func TestReadCapFaultTakesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  func(cheri.Cap) (cheri.Cap, error)
	}{
		{"short", func(c cheri.Cap) (cheri.Cap, error) { return c.SetBounds(8) }},
		{"no_store", func(c cheri.Cap) (cheri.Cap, error) { return c.AndPerms(cheri.PermLoad) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, true)
			cfd, afd := e.connectPair(5001)
			if _, errno := e.stkA.Write(cfd, make([]byte, 16)); errno != hostos.OK {
				t.Fatal(errno)
			}
			e.pumpUntil(200, "bytes arrive", func() bool { return buffered(e.stkB, afd) == 16 })
			mem, buf := appMem(t, 64)
			buf, err := tc.cap(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n, errno := e.stkB.ReadCap(afd, mem, buf, 16); errno != hostos.EFAULT {
				t.Fatalf("ReadCap: %d %v, want EFAULT", n, errno)
			}
			if got := buffered(e.stkB, afd); got != 16 {
				t.Fatalf("%d bytes left queued after the fault, want 16", got)
			}
		})
	}
}

// TestReadCapMatchesRead: Read and ReadCap give the same answer in
// every connection state, the empty-buffer rule included.
func TestReadCapMatchesRead(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(e *testEnv) int // the descriptor on stkA to read
	}{
		{"bad_fd", func(e *testEnv) int { return 999 }},
		{"unconnected", func(e *testEnv) int {
			fd, _ := e.stkA.Socket(SockStream)
			return fd
		}},
		{"syn_sent", func(e *testEnv) int {
			fd, _ := e.stkA.Socket(SockStream)
			if errno := e.stkA.Connect(fd, IP4(10, 0, 0, 2), 5001); errno != hostos.EINPROGRESS {
				e.t.Fatal(errno)
			}
			return fd
		}},
		{"established_empty", func(e *testEnv) int {
			cfd, _ := e.connectPair(5001)
			return cfd
		}},
		{"established_data", func(e *testEnv) int {
			cfd, afd := e.connectPair(5001)
			e.stkB.Write(afd, []byte("sixteen bytes!!!"))
			e.pumpUntil(200, "bytes arrive", func() bool { return buffered(e.stkA, cfd) == 16 })
			return cfd
		}},
		{"fin_drained", func(e *testEnv) int {
			cfd, afd := e.connectPair(5001)
			e.stkB.Close(afd)
			e.pumpUntil(200, "FIN arrives", func() bool { return e.stkA.ConnState(cfd) == "CLOSE_WAIT" })
			return cfd
		}},
		{"reset", func(e *testEnv) int {
			cfd, _ := e.connectPair(5001)
			e.stkA.Crash()
			return cfd
		}},
		{"closed_no_error_no_fin", func(e *testEnv) int {
			cfd, _ := e.connectPair(5001)
			e.stkA.sockOf(cfd).conn.state = tcpClosed
			return cfd
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, true)
			fd := tc.setup(e)
			plain := make([]byte, 32)
			n, errno := e.stkA.Read(fd, plain)

			e = newEnv(t, true)
			fd = tc.setup(e)
			mem, buf := appMem(t, 32)
			nc, errnoc := e.stkA.ReadCap(fd, mem, buf, 32)
			if nc != n || errnoc != errno {
				t.Fatalf("ReadCap = %d %v, Read = %d %v", nc, errnoc, n, errno)
			}
			got := make([]byte, 32)
			if err := mem.Load(mem.Root(), appBufBase, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, plain) {
				t.Fatalf("ReadCap stored %q, Read %q", got, plain)
			}
		})
	}
}

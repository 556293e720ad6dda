//go:build !race

package fstack

import (
	"runtime"
	"testing"

	"repro/internal/hostos"
	"repro/internal/nic"
	"repro/internal/sim"
)

// TestConnChurnZeroAllocs pins the conn-arena hard constraint: at
// steady state a full connection lifecycle — TIME_WAIT tuple reuse,
// SYN-cache handshake, graduation, accept, both-sides close back into
// the arena — must not allocate. A regression here means some part of
// setup or teardown (conn, socket, buffers, wheel entries, syncache
// entries) fell off its free list.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestConnChurnZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	res := testing.Benchmark(BenchmarkConnChurn)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("connection churn allocates %d allocs/op at steady state, want 0", a)
	}
}

// TestPreloadAllocsPerConn pins what the slab refills bought: parking
// idle connections — Scenario 8's preload, the bench's churn_25k — costs
// at most half a heap allocation per connection end to end, client
// stack and 2-shard server together (the amortised slabs, congestion
// controllers included, table pages and tuple-table growth). One `new`
// per tcpConn, sockBuf, socket and shardedFD made it ≈ 8.7; one
// congestion controller per connection on each side kept it at ≈ 2.1.
func TestPreloadAllocsPerConn(t *testing.T) {
	b := newPreloadBed(t)
	b.open(1)  // ARP parks only a few packets per neighbour
	b.open(63) // the first slabs and pages, scratch slices
	const conns = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.open(conns)
	runtime.ReadMemStats(&after)
	if got := b.srv.ConnCount(); got != 64+conns {
		t.Fatalf("%d connections parked on the server, want %d", got, 64+conns)
	}
	if per := float64(after.Mallocs-before.Mallocs) / conns; per > 0.5 {
		t.Fatalf("establishing an idle connection costs %.2f allocations end to end, want <= 0.5", per)
	} else {
		t.Logf("%.2f allocations per idle connection", per)
	}
}

// TestPreloadHeapPerConn pins what an idle connection holds, on
// TestPreloadAllocsPerConn's bed: the live heap 20 000 more parked
// connections add, both ends and every table and arena they fill, read
// after a collection on either side, is at most 700 B a connection. The
// tuple index as a Go map, a view entry taken from an arena and pointed
// at from its table page, and a 64-bit window put it at 761 B.
func TestPreloadHeapPerConn(t *testing.T) {
	if testing.Short() {
		t.Skip("parks 20 000 connections; skipped in -short")
	}
	b := newPreloadBed(t)
	b.open(1) // ARP first, as above
	b.open(63)
	const conns = 20_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.open(conns)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := b.srv.ConnCount(); got != 64+conns {
		t.Fatalf("%d connections parked on the server, want %d", got, 64+conns)
	}
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / conns
	if per > 700 {
		t.Fatalf("an idle connection holds %.0f B of live heap end to end, want <= 700", per)
	}
	t.Logf("%.0f B of live heap per idle connection", per)
	runtime.KeepAlive(b)
}

// preloadBed is a one-shard client stack and a 2-shard server listening
// on port 8080, wired back to back, on which open parks idle
// connections.
type preloadBed struct {
	t   *testing.T
	clk *sim.VClock
	cli *Stack
	srv *ShardedStack
	api *ShardedAPI
	lfd int
}

func newPreloadBed(t *testing.T) *preloadBed {
	clk := sim.NewVClock()
	cli, cardA := buildMachine(t, clk, "0000:03:00", 1, IP4(10, 0, 0, 1), false)
	srv, cardB := buildShardedMachine(t, clk, "0000:04:00", 2, IP4(10, 0, 0, 2), 2)
	nic.Connect(cardA.Port(0), cardB.Port(0))
	api := srv.API()
	lfd, _ := api.Socket(SockStream)
	if errno := api.Bind(lfd, IPv4Addr{}, 8080); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := api.Listen(lfd, 128); errno != hostos.OK {
		t.Fatal(errno)
	}
	return &preloadBed{t: t, clk: clk, cli: cli, srv: srv, api: api, lfd: lfd}
}

// open parks n more idle connections, 32 handshakes at a time, each
// accepted on the server.
func (b *preloadBed) open(n int) {
	for done := 0; done < n; {
		batch := min(32, n-done)
		for i := 0; i < batch; i++ {
			cfd, _ := b.cli.Socket(SockStream)
			if errno := b.cli.Connect(cfd, IP4(10, 0, 0, 2), 8080); errno != hostos.EINPROGRESS {
				b.t.Fatalf("connect: %v", errno)
			}
		}
		for accepted, ticks := 0, 0; accepted < batch; ticks++ {
			if ticks > 20000 {
				b.t.Fatalf("%d of %d connections of a batch accepted", accepted, batch)
			}
			b.cli.PollOnce()
			for _, s := range b.srv.Shards() {
				s.RunOnce()
			}
			b.clk.Advance(5000)
			for {
				if _, _, _, errno := b.api.Accept(b.lfd); errno != hostos.OK {
					break
				}
				accepted++
			}
		}
		done += batch
	}
}

// TestColdRecordLossZeroAllocs pins the cold record's pool: on a warm
// stack, a connection's loss episode — a lost segment the receiver
// parks around, the sender's SACK recovery — takes both records from
// the pool, with the capacity their scoreboard and run list grew before,
// and gives them back at TIME_WAIT and recycling, allocating nothing and
// leaving the slabs untouched. Each episode runs on a fresh connection
// over the 4-tuple the previous one left in TIME_WAIT (churnCycle's).
//
// Skipped under the race detector, whose instrumentation allocates.
func TestColdRecordLossZeroAllocs(t *testing.T) {
	lose := &wireRule{from: fromA, kind: dataSeg, nth: 2, drop: true} // the second data segment of the burst
	e := newRig(t, false, (&scriptWire{rules: []*wireRule{lose}}).attach)
	tune := TCPTuning{SACK: true, SndBufBytes: 16384, RcvBufBytes: 16384}
	e.stkA.SetTCPTuning(tune)
	e.stkB.SetTCPTuning(tune)
	lfd, _ := e.stkB.Socket(SockStream)
	e.stkB.Bind(lfd, IPv4Addr{}, 9101)
	e.stkB.Listen(lfd, 8)
	payload, buf := make([]byte, 8<<10), make([]byte, 16<<10)
	episode := func() {
		cfd, afd := lossyCycleOpen(t, e, lfd)
		lose.seen = 0
		if n, errno := e.stkA.Write(cfd, payload); errno != hostos.OK || n != len(payload) {
			t.Fatalf("write = %d, %v", n, errno)
		}
		for got, tick := 0, 0; got < len(payload); tick++ {
			if tick >= 40000 {
				t.Fatalf("%d of %d bytes arrived", got, len(payload))
			}
			e.tick()
			if n, errno := e.stkB.Read(afd, buf); errno == hostos.OK {
				got += n
			}
		}
		lossyCycleClose(t, e, cfd, afd)
	}
	for i := 0; i < 8; i++ {
		episode()
	}
	slabA, slabB := e.stkA.coldArena.issued, e.stkB.coldArena.issued
	sack := e.stkA.Stats().SACKRetransmit
	const runs = 20
	if a := testing.AllocsPerRun(runs, episode); a != 0 {
		t.Fatalf("a loss episode on a warm stack costs %v allocs, want 0", a)
	}
	if d := e.stkA.Stats().SACKRetransmit - sack; d < runs {
		t.Fatalf("%d SACK retransmissions in %d episodes: not every episode lost a segment", d, runs)
	}
	if e.stkA.coldArena.issued != slabA || e.stkB.coldArena.issued != slabB {
		t.Fatalf("the cold slabs moved (%d → %d, %d → %d): episodes took fresh records, not pooled ones",
			slabA, e.stkA.coldArena.issued, slabB, e.stkB.coldArena.issued)
	}
	if len(e.stkA.coldArena.free) == 0 || len(e.stkB.coldArena.free) == 0 {
		t.Fatal("no cold record on either pool: the episodes never took one")
	}
}

// lossyCycleOpen connects over churnCycle's fixed 4-tuple (source port
// 25000) and accepts, with loops rather than closures so that an
// allocation pin counts only the stack.
func lossyCycleOpen(t *testing.T, e *testEnv, lfd int) (cfd, afd int) {
	cfd, errno := e.stkA.Socket(SockStream)
	if errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := e.stkA.Bind(cfd, IPv4Addr{}, 25000); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 9101); errno != hostos.EINPROGRESS {
		t.Fatal(errno)
	}
	afd = -1
	for tick := 0; afd < 0 || e.stkA.ConnState(cfd) != "ESTABLISHED"; tick++ {
		if tick >= 8000 {
			t.Fatal("handshake never completed")
		}
		e.tick()
		if afd < 0 {
			if fd, _, _, errno := e.stkB.Accept(lfd); errno == hostos.OK {
				afd = fd
			}
		}
	}
	return cfd, afd
}

// lossyCycleClose closes the client then the server side and waits for
// the server conn to be recycled and the client's to sit alone in
// TIME_WAIT, as churnCycle does.
func lossyCycleClose(t *testing.T, e *testEnv, cfd, afd int) {
	e.stkA.Close(cfd)
	for tick := 0; e.stkB.ConnState(afd) != "CLOSE_WAIT"; tick++ {
		if tick >= 8000 {
			t.Fatal("server never saw the FIN")
		}
		e.tick()
	}
	e.stkB.Close(afd)
	for tick := 0; e.stkB.ConnCount() != 0 || e.stkA.ConnCount() != 1; tick++ {
		if tick >= 8000 {
			t.Fatal("teardown never drained")
		}
		e.tick()
	}
}

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
// controllers included, table pages and map growth). One `new` per
// tcpConn, sockBuf, socket and shardedFD made it ≈ 8.7; one congestion
// controller per connection on each side kept it at ≈ 2.1.
func TestPreloadAllocsPerConn(t *testing.T) {
	clk := sim.NewVClock()
	ipB := IP4(10, 0, 0, 2)
	stkA, cardA := buildMachine(t, clk, "0000:03:00", 1, IP4(10, 0, 0, 1), false)
	ss, cardB := buildShardedMachine(t, clk, "0000:04:00", 2, ipB, 2)
	nic.Connect(cardA.Port(0), cardB.Port(0))
	api := ss.API()
	lfd, _ := api.Socket(SockStream)
	if errno := api.Bind(lfd, IPv4Addr{}, 8080); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := api.Listen(lfd, 128); errno != hostos.OK {
		t.Fatal(errno)
	}
	open := func(n int) {
		for done := 0; done < n; {
			batch := min(32, n-done)
			for i := 0; i < batch; i++ {
				cfd, _ := stkA.Socket(SockStream)
				if errno := stkA.Connect(cfd, ipB, 8080); errno != hostos.EINPROGRESS {
					t.Fatalf("connect: %v", errno)
				}
			}
			for accepted, ticks := 0, 0; accepted < batch; ticks++ {
				if ticks > 20000 {
					t.Fatalf("%d of %d connections of a batch accepted", accepted, batch)
				}
				stkA.PollOnce()
				for _, s := range ss.Shards() {
					s.RunOnce()
				}
				clk.Advance(5000)
				for {
					if _, _, _, errno := api.Accept(lfd); errno != hostos.OK {
						break
					}
					accepted++
				}
			}
			done += batch
		}
	}
	open(1)  // ARP parks only a few packets per neighbour
	open(63) // the first slabs and pages, scratch slices
	const conns = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	open(conns)
	runtime.ReadMemStats(&after)
	if got := ss.ConnCount(); got != 64+conns {
		t.Fatalf("%d connections parked on the server, want %d", got, 64+conns)
	}
	if per := float64(after.Mallocs-before.Mallocs) / conns; per > 0.5 {
		t.Fatalf("establishing an idle connection costs %.2f allocations end to end, want <= 0.5", per)
	} else {
		t.Logf("%.2f allocations per idle connection", per)
	}
}

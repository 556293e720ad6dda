// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation (run `go test -bench=. -benchmem`):
//
//	BenchmarkTable2/*      — Table II TCP bandwidth rows (Mbit/s and polls/op metrics)
//	BenchmarkFig3*         — the capability-violation experiment
//	BenchmarkFig4*         — ff_write(): Scenario 1 vs Baseline
//	BenchmarkFig5*         — ff_write(): Scenario 2 (uncontended) vs Baseline
//	BenchmarkFig6*         — ff_write(): Scenario 2 uncontended vs contended
//	BenchmarkAblation*     — design-choice ablations from DESIGN.md
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cheri"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/intravisor"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// --- Table II ---

// benchTable2Block runs one scenario/direction pair per iteration and
// reports the local goodput and the driver's polls: Loop.RunOnce calls
// summed over the bed's loops, the host-side count the event-driven
// driver exists to keep proportional to events (DESIGN.md §8).
func benchTable2Block(b *testing.B, spec int, dir core.Direction) {
	b.ReportAllocs()
	var last []core.BWResult
	var polls uint64
	for i := 0; i < b.N; i++ {
		s, err := core.Table2Spec[spec].Build(sim.NewVClock())
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.BandwidthPair(s, dir)
		if err != nil {
			b.Fatal(err)
		}
		last = res
		for _, l := range s.Loops() {
			polls += l.Iterations()
		}
	}
	for i, r := range last {
		b.ReportMetric(r.Mbps, fmt.Sprintf("Mbit/s:ep%d", i))
	}
	b.ReportMetric(float64(polls)/float64(b.N), "polls/op")
}

func BenchmarkTable2(b *testing.B) {
	names := []string{"BaselineDual", "Scenario1", "BaselineSingle", "Scenario2Uncontended", "Scenario2Contended"}
	for i, name := range names {
		i := i
		for _, dir := range []core.Direction{core.LocalIsServer, core.LocalIsClient} {
			dir := dir
			b.Run(fmt.Sprintf("%s/%v", name, dir), func(b *testing.B) {
				benchTable2Block(b, i, dir)
			})
		}
	}
}

// --- Fig. 3 ---

func BenchmarkFig3CapViolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.RunFig3()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Fault == nil || !rep.VictimUnaffected {
			b.Fatal("compartmentalization did not hold")
		}
	}
}

// --- Figs. 4-6 (ff_write latency) ---

// benchCfg derives a measurement size from b.N so `-benchtime` scales
// the experiment, with a floor for stable quartiles.
func benchCfg(b *testing.B) core.FFWriteConfig {
	cfg := core.DefaultFFWriteConfig()
	cfg.Iterations = max(b.N, 2000)
	return cfg
}

func reportSets(b *testing.B, sets []core.LatencySet) {
	for _, s := range sets {
		box := stats.CleanBox(s.Samples)
		b.ReportMetric(box.Mean, "ns-mean:"+shortLabel(s.Label))
		b.ReportMetric(box.Median, "ns-med:"+shortLabel(s.Label))
	}
}

func shortLabel(l string) string {
	out := make([]rune, 0, len(l))
	for _, r := range l {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkFig4FFWriteS1VsBaseline(b *testing.B) {
	sets, err := core.MeasureFig4(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	reportSets(b, sets)
}

func BenchmarkFig5FFWriteS2VsBaseline(b *testing.B) {
	sets, err := core.MeasureFig5(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	reportSets(b, sets)
}

func BenchmarkFig6FFWriteContention(b *testing.B) {
	sets, err := core.MeasureFig6(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	reportSets(b, sets)
}

// --- Table I ---

func BenchmarkTable1LoCCount(b *testing.B) {
	var row core.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		row, err = core.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.CapLines), "cap-lines")
	b.ReportMetric(row.Percent, "pct")
}

// BenchmarkScenario3Bandwidth measures the future-work layout (§VI:
// DPDK separated from F-Stack into its own cVM) — per-burst gate
// crossings on the datapath, still expected at line rate.
func BenchmarkScenario3Bandwidth(b *testing.B) {
	var last []core.BWResult
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario3(sim.NewVClock())
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.BandwidthPair(s, core.LocalIsClient)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last[0].Mbps, "Mbit/s")
}

// BenchmarkScenario4Scaling measures the multi-core layout: aggregate
// goodput of 8 concurrent flows over a sharded stack, per shard count.
// The Mbit/s metric should scale near-linearly until the 4 Gbit/s port
// (not any lock) limits it.
func BenchmarkScenario4Scaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			var last core.Scenario4Result
			for i := 0; i < b.N; i++ {
				r, err := core.RunScenario4(core.Scenario4Config{Shards: shards},
					core.LocalIsClient, 8, core.DefaultScenario4Duration)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Mbps, "Mbit/s")
		})
	}
}

// BenchmarkScenario5 measures the lossy high-BDP WAN layout: one flow
// through a 100 Mbit/s, 20 ms RTT netem link with ~1% bursty loss,
// with the paper's stack (go-back-N, 64 KiB windows) vs the modern
// tuning (SACK + window scaling). The Mbit/s metric should show the
// modern stack at least doubling the paper stack's goodput.
func BenchmarkScenario5(b *testing.B) {
	link := netem.Config{GEBadProb: 0.00033, GERecoverProb: 0.033, DelayNS: 10e6, RateBps: 100e6}
	for _, modern := range []bool{false, true} {
		modern := modern
		name := "go-back-N"
		if modern {
			name = "SACK"
		}
		b.Run(name, func(b *testing.B) {
			var last core.Scenario5Result
			for i := 0; i < b.N; i++ {
				r, err := core.RunScenario5(core.Scenario5Config{Modern: modern, Link: link},
					core.DefaultScenario5Duration)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Mbps, "Mbit/s")
			b.ReportMetric(float64(last.Stats.Retransmit), "retx")
		})
	}
}

// BenchmarkScenario6 measures the composed layout: 8 upload flows
// from a sharded stack through a 2 Gbit/s, 10 ms RTT bottleneck with
// ~0.5% bursty loss — the paper configuration (1 shard, go-back-N)
// against the composed one (4 shards, SACK + window scaling) on the
// identical seeded link. The Mbit/s metric should show the composed
// stack at least doubling the paper configuration.
func BenchmarkScenario6(b *testing.B) {
	type cfg struct {
		name   string
		shards int
		modern bool
	}
	for _, c := range []cfg{
		{"1shard-go-back-N", 1, false},
		{"4shard-SACK", 4, true},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var last core.Scenario6Result
			for i := 0; i < b.N; i++ {
				r, err := core.RunScenario6(core.Scenario6Config{Shards: c.shards, Modern: c.modern},
					8, core.DefaultScenario6Duration)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Mbps, "Mbit/s")
			b.ReportMetric(float64(last.Stats.Retransmit), "retx")
		})
	}
}

// BenchmarkScenario7 measures the congestion-control comparison on the
// gated WAN point: one flow through the seeded 100 Mbit/s × 100 ms RTT
// deep-queue link with sparse fades, Reno vs CUBIC over the fstack CC
// seam. The Mbit/s metric should show CUBIC at least doubling Reno and
// clearing 70% of the bottleneck.
func BenchmarkScenario7(b *testing.B) {
	for _, cc := range []string{"reno", "cubic"} {
		cc := cc
		b.Run(cc, func(b *testing.B) {
			var last core.Scenario7Result
			for i := 0; i < b.N; i++ {
				r, err := core.RunScenario7(core.Scenario7Config{Congestion: cc},
					core.DefaultScenario7Duration)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Mbps, "Mbit/s")
			b.ReportMetric(last.Utilization()*100, "util-pct")
			b.ReportMetric(float64(last.Stats.Retransmit), "retx")
		})
	}
}

// BenchmarkScenario8 measures the connection plane at a scaled-down
// churn point: 4 shards in capability mode hold 10 000 idle connections
// while 50 000 short flows/s arrive open-loop for 100 ms. accepts/s is
// the figure of merit (the offered rate absorbed) and deferred counts
// the pace slots the generator could not offer; both are virtual-time
// results, so they only move when behavior does. Set-up — building the
// bed and establishing the idle population — is part of the measured
// time, as it is for a `cherinet scenario8` run.
func BenchmarkScenario8(b *testing.B) {
	var last core.Scenario8Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunScenario8(core.Scenario8Config{
			Shards: 4, CapMode: true, Conns: 10000, Rate: 50000, DurationNS: 100e6,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AcceptsPerSec(), "accepts/s")
	b.ReportMetric(float64(last.ConnectP99NS)/1e3, "connect-p99-µs")
	b.ReportMetric(float64(last.Deferred), "deferred")
}

// BenchmarkScenario9 measures the request/response plane at the
// moderate-load point: open-loop HTTP keep-alive and DNS-shaped UDP
// traffic over two shards, reporting the merged per-request tail. The
// p99 metric is the figure of merit; done/s confirms the offered rate
// was absorbed.
func BenchmarkScenario9(b *testing.B) {
	for _, proto := range []string{"http", "dns"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			var last core.Scenario9Result
			for i := 0; i < b.N; i++ {
				r, err := core.RunScenario9(core.Scenario9Config{
					Proto: proto, Shards: 2, Rate: 8000, Conns: 16,
					DurationNS: 200e6,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.CompletedPerSec(), "done/s")
			b.ReportMetric(float64(last.P99NS)/1e3, "p99-µs")
			b.ReportMetric(float64(last.Timeouts), "timeouts")
		})
	}
}

// BenchmarkScenario10 measures the fault-storm point in both modes:
// a sharded HTTP service under two injected capability faults with the
// supervisor restarting trapped compartments. Done/s is throughput
// under the storm; blast-min is the worst surviving shard's
// completions (in capability mode it should match the clean run) and
// mttr-ms the mean fault-to-recovery time.
func BenchmarkScenario10(b *testing.B) {
	for _, capMode := range []bool{false, true} {
		capMode := capMode
		name := "baseline"
		if capMode {
			name = "cheri"
		}
		b.Run(name, func(b *testing.B) {
			var last core.Scenario10Result
			for i := 0; i < b.N; i++ {
				r, err := core.RunScenario10(core.Scenario10Config{
					Shards: 3, CapMode: capMode, Faults: 2, MTBFNS: 40e6,
					Conns: 2, DurationNS: 300e6,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.CompletedPerSec(), "done/s")
			b.ReportMetric(float64(last.OtherMinDone), "blast-min")
			b.ReportMetric(float64(last.MTTRMeanNS)/1e6, "mttr-ms")
		})
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationCapChecks compares the datapath memory access with
// and without capability checking — the raw cost CHERI adds per copy.
func BenchmarkAblationCapChecks(b *testing.B) {
	mem := cheri.NewTMem(1 << 20)
	capa, err := mem.Root().SetAddr(0x1000).SetBounds(64 * 1024)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 1448)
	b.Run("checked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := mem.CheckedSliceRO(capa, 0x1000, len(dst))
			if err != nil {
				b.Fatal(err)
			}
			copy(dst, s)
		}
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := mem.RawSlice(0x1000, len(dst))
			if err != nil {
				b.Fatal(err)
			}
			copy(dst, s)
		}
	})
}

// BenchmarkAblationTrampoline compares the clock read through the
// Intravisor trampoline (save frame, scrub, CInvoke, proxy, restore)
// with a direct host syscall — the ~125 ns of Fig. 4.
func BenchmarkAblationTrampoline(b *testing.B) {
	k, err := hostos.NewKernel(16 << 20)
	if err != nil {
		b.Fatal(err)
	}
	s1, err := core.NewScenario1(hostos.NewRealClock())
	if err != nil {
		b.Fatal(err)
	}
	cvm := s1.Envs[0].CVM
	b.Run("trampoline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if cvm.NowNS() < 0 {
				b.Fatal("clock failed")
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, errno := k.Syscall(hostos.SysClockGettime, hostos.Args{hostos.ClockMonotonicRaw}); errno != hostos.OK {
				b.Fatal(errno)
			}
		}
	})
}

// BenchmarkAblationGateCall isolates the cross-compartment call cost of
// Scenario 2 (no mutex contention, no payload).
func BenchmarkAblationGateCall(b *testing.B) {
	s, err := core.NewScenario2(hostos.NewRealClock(), 1)
	if err != nil {
		b.Fatal(err)
	}
	gate, err := s.Local.IV.NewGate(s.Envs[0].CVM,
		func(_ *intravisor.CVM, a hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) {
			return a[0] + 1, hostos.OK
		})
	if err != nil {
		b.Fatal(err)
	}
	app := s.AppCVM(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, errno := gate.Call(app, hostos.Args{uint64(i)}, cheri.NullCap); errno != hostos.OK || r != uint64(i)+1 {
			b.Fatal("gate call failed")
		}
	}
}

// BenchmarkAblationLock compares serialization strategies for the
// F-Stack API (the paper's future-work question): the mutex the paper
// uses vs a channel-based hand-off.
func BenchmarkAblationLock(b *testing.B) {
	b.Run("mutex", func(b *testing.B) {
		var mu sync.Mutex
		x := 0
		for i := 0; i < b.N; i++ {
			mu.Lock()
			x++
			mu.Unlock()
		}
		_ = x
	})
	b.Run("channel", func(b *testing.B) {
		req := make(chan struct{})
		done := make(chan struct{})
		go func() {
			for range req {
				done <- struct{}{}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req <- struct{}{}
			<-done
		}
		close(req)
	})
}

package core

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/fstack"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// The scenario registry: one table naming every experiment the
// reproduction can run, with a one-line description and the flags it
// reads. cmd/cherinet consumes it for dispatch, `cherinet list`, and
// near-miss suggestions; anything else (examples, future front ends)
// can iterate it the same way.

// ScenarioEntry is one registered experiment.
type ScenarioEntry struct {
	// Name is the cherinet subcommand.
	Name string
	// Desc is the one-line description `cherinet list` prints.
	Desc string
	// Bind declares on fs the flags this experiment reads — and only
	// those, so a flag it would ignore is a usage error — and returns
	// the run: it executes the experiment with whatever fs parsed and
	// writes the report to w.
	Bind func(fs *flag.FlagSet) func(w io.Writer) error
}

// Flags several experiments declare. A flag keeps one meaning wherever
// it appears, except -rate and -conns, which each scenario declares
// with its own unit and default.

func shardsFlag(fs *flag.FlagSet, usage string) *int {
	v := fs.Int("shards", 4, usage)
	// One shard per queue pair of the port it drives.
	bounded(fs, "shards", fmt.Sprintf("between 1 and %d", nic.MaxQueues), func(v float64) bool { return v >= 1 && v <= nic.MaxQueues })
	return v
}

func flowsFlag(fs *flag.FlagSet) *int { return fs.Int("flows", 8, "concurrent iperf flows") }

func lossFlag(fs *flag.FlagSet, usage string) *float64 {
	v := fs.Float64("loss", 0.01, usage)
	bounded(fs, "loss", "in [0, 1)", func(v float64) bool { return v >= 0 && v < 1 })
	return v
}

func delayFlag(fs *flag.FlagSet, usage string) *int64 {
	v := fs.Int64("delay", 10e6, usage)
	notNegative(fs, "delay")
	return v
}

func rateBpsFlag(fs *flag.FlagSet) *float64 {
	v := fs.Float64("rate", 100e6, "bottleneck rate (bits/s)")
	positive(fs, "rate")
	return v
}

// durationFlag declares a scenario's traffic-time flag.
func durationFlag(fs *flag.FlagSet, name string, def int64, usage string) *int64 {
	v := fs.Int64(name, def, usage)
	positive(fs, name)
	return v
}

// ccFlag declares -cc; an unregistered algorithm is a usage error.
func ccFlag(fs *flag.FlagSet, usage string) *string {
	cc := new(string)
	fs.Func("cc", fmt.Sprintf("congestion control %v: %s", fstack.CongestionAlgos(), usage), func(v string) error {
		if !fstack.ValidCongestion(v) {
			return fmt.Errorf("not a registered algorithm (have %v)", fstack.CongestionAlgos())
		}
		*cc = v
		return nil
	})
	return cc
}

// obsFlags declares the export destinations that switch the
// observability layer on for every point of a sweep. Unset (the
// default) keeps it off and the report byte-identical.
func obsFlags(fs *flag.FlagSet) *SweepObs {
	so := new(SweepObs)
	fs.StringVar(&so.TraceDir, "trace", "", "write per-point Chrome trace-event JSON into this directory")
	fs.StringVar(&so.MetricsDir, "metrics", "", "write per-point metrics timeseries (CSV+JSON) into this directory")
	fs.StringVar(&so.PcapDir, "pcap", "", "write per-point per-peer libpcap captures under this directory")
	return so
}

// ffWriteFigure registers one of the timed ff_write figures (4-6).
func ffWriteFigure(name, desc, title string, cells ...ffCell) ScenarioEntry {
	return ScenarioEntry{Name: name, Desc: desc, Bind: func(fs *flag.FlagSet) func(io.Writer) error {
		var cfg FFWriteConfig
		fs.IntVar(&cfg.Iterations, "iters", 100_000, "timed ff_write iterations (paper: 1e6)")
		fs.Int64Var(&cfg.IntervalNS, "interval", 20_000, "ns between timed writes")
		fs.IntVar(&cfg.Payload, "payload", 1448, "ff_write payload bytes")
		atLeast1(fs, "iters")
		notNegative(fs, "interval")
		// A gated ff_write stages at most StageWriteSize bytes per call.
		bounded(fs, "payload", fmt.Sprintf("between 1 and %d", testbed.StageWriteSize),
			func(v float64) bool { return v >= 1 && v <= testbed.StageWriteSize })
		return func(w io.Writer) error {
			sets, err := measureFigure(cfg, cells...)
			if err != nil {
				return err
			}
			fmt.Fprint(w, FormatFFWrite(title, sets))
			return nil
		}
	}}
}

// noFlags binds an experiment that reads none.
func noFlags(run func(w io.Writer) error) func(*flag.FlagSet) func(io.Writer) error {
	return func(*flag.FlagSet) func(io.Writer) error { return run }
}

// bound is a numeric flag that refuses, when it is parsed, a value
// outside its range: a usage error (exit 2) that names the flag, before
// anything runs.
type bound struct {
	flag.Getter
	want string
	ok   func(v float64) bool
}

func (b bound) Set(s string) error {
	if err := b.Getter.Set(s); err != nil {
		return err
	}
	var v float64
	switch x := b.Get().(type) {
	case int:
		v = float64(x)
	case int64:
		v = float64(x)
	case float64:
		v = x
	}
	if !b.ok(v) {
		return fmt.Errorf("must be %s", b.want)
	}
	return nil
}

// bounded puts a range on the numeric flag name, already declared on fs.
func bounded(fs *flag.FlagSet, name, want string, ok func(v float64) bool) {
	f := fs.Lookup(name)
	f.Value = bound{f.Value.(flag.Getter), want, ok}
}

// The usual ranges: a count is at least 1, a rate or a duration is
// positive, a delay is not negative.
func atLeast1(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		bounded(fs, name, "at least 1", func(v float64) bool { return v >= 1 })
	}
}

func positive(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		bounded(fs, name, "positive", func(v float64) bool { return v > 0 })
	}
}

func notNegative(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		bounded(fs, name, "zero or more", func(v float64) bool { return v >= 0 })
	}
}

// Registry lists every runnable experiment, in `cherinet all` order.
var Registry = []ScenarioEntry{
	{
		Name: "fig3",
		Desc: "capability out-of-bounds demonstration (applications escaping their boundaries)",
		Bind: noFlags(func(w io.Writer) error {
			rep, err := RunFig3()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "FIG 3 — applications accessing memory outside their boundaries")
			fmt.Fprintln(w, " ", rep)
			return nil
		}),
	},
	{
		Name: "table1",
		Desc: "capability-integration LoC of the F-Stack port",
		Bind: noFlags(func(w io.Writer) error {
			row, err := RunTable1()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "TABLE I — capability-integration lines in the TCP/IP library")
			fmt.Fprintln(w, " ", row)
			return nil
		}),
	},
	{
		Name: "table2",
		Desc: "TCP bandwidth, Baseline + Scenarios 1-2, both directions (virtual time)",
		Bind: noFlags(func(w io.Writer) error {
			blocks, err := RunTable2()
			if err != nil {
				return err
			}
			fmt.Fprint(w, FormatTable2(blocks))
			return nil
		}),
	},
	ffWriteFigure("fig4", "ff_write() execution time: Scenario 1 vs Baseline",
		"FIG 4 — ff_write() execution time: Scenario 1 vs Baseline (ns)", ffBaselineDual, ffScenario1),
	ffWriteFigure("fig5", "ff_write() execution time: Scenario 2 (uncontended) vs Baseline",
		"FIG 5 — ff_write() execution time: Scenario 2 (uncontended) vs Baseline (ns)", ffBaselineSingle, ffUncontended),
	ffWriteFigure("fig6", "ff_write() execution time: Scenario 2 uncontended vs contended",
		"FIG 6 — ff_write() execution time: Scenario 2 uncontended vs contended (ns)", ffUncontended, ffContended),
	{
		Name: "scenario3",
		Desc: "future-work split: DPDK in its own cVM, gates on the datapath (bandwidth)",
		Bind: noFlags(func(w io.Writer) error {
			for _, dir := range []Direction{LocalIsServer, LocalIsClient} {
				s, err := NewScenario3(sim.NewVClock())
				if err != nil {
					return err
				}
				res, err := BandwidthPair(s, dir)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "SCENARIO 3 — %s\n", dir)
				for _, r := range res {
					fmt.Fprintf(w, "  %v\n", r)
				}
			}
			return nil
		}),
	},
	{
		Name: "scenario4",
		Desc: "multi-core scaling: sharded stack over RSS queues, goodput vs shard count",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			shards := shardsFlag(fs, "max stack shards (swept in powers of two)")
			flows := flowsFlag(fs)
			duration := durationFlag(fs, "duration", DefaultScenario4Duration, "traffic time (virtual ns)")
			return func(w io.Writer) error {
				results, err := RunScenario4Sweep(powersOfTwo(*shards), *flows, *duration)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario4(results))
				return nil
			}
		},
	},
	{
		Name: "scenario5",
		Desc: "lossy high-BDP WAN: goodput vs loss and vs BDP, go-back-N vs SACK+WS",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			loss := lossFlag(fs, "max random loss rate (swept from 0)")
			delay := delayFlag(fs, "one-way delay for the loss sweep (ns)")
			rate := rateBpsFlag(fs)
			cc := ccFlag(fs, "the modern stacks' controller (empty = reno)")
			duration := durationFlag(fs, "s5duration", DefaultScenario5Duration, "traffic time per point (virtual ns)")
			so := obsFlags(fs)
			return func(w io.Writer) error {
				losses := []float64{0, *loss / 4, *loss / 2, *loss}
				lossResults, err := RunScenario5LossSweep(losses, *delay, *rate, *cc, *duration, *so)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario5(
					fmt.Sprintf("goodput vs random loss (%.0f Mbit/s bottleneck, %.0f ms RTT)",
						*rate/1e6, float64(2**delay)/1e6), lossResults))
				fmt.Fprintln(w)
				bdpResults, err := RunScenario5BDPSweep(
					[]int64{1e6, 5e6, 20e6, 50e6}, *loss/4, *rate, *cc, *duration, *so)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario5(
					fmt.Sprintf("goodput vs path BDP (%.0f Mbit/s bottleneck, %.2f%% loss)",
						*rate/1e6, *loss/4*100), bdpResults))
				return nil
			}
		},
	},
	{
		Name: "scenario6",
		Desc: "composed: sharded stack over an impaired WAN, paper stack vs shards+SACK",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			shards := shardsFlag(fs, "max stack shards (swept in powers of two)")
			flows := flowsFlag(fs)
			mode := fs.String("mode", "upload", "traffic direction: upload (sharded box sends) or download (peer sends into the cloned listeners)")
			ackrate := fs.Float64("ackrate", 0, "reverse (ACK) channel bottleneck (bits/s; 0 = clean)")
			cc := ccFlag(fs, "the modern stacks' controller (empty = reno)")
			duration := durationFlag(fs, "s6duration", DefaultScenario6Duration, "traffic time per point (virtual ns)")
			notNegative(fs, "ackrate")
			return func(w io.Writer) error {
				base := Scenario6Config{Congestion: *cc}
				switch *mode {
				case "", "upload":
				case "download":
					base.Download = true
				default:
					return fmt.Errorf("-mode must be upload or download, not %q", *mode)
				}
				if *ackrate > 0 {
					// Squeeze only the ACK channel; propagation stays
					// symmetric.
					base.Rev = &netem.Config{DelayNS: s6DelayNS, RateBps: *ackrate}
				}
				results, err := RunScenario6Sweep(powersOfTwo(*shards), *flows, *duration, base)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario6(results))
				return nil
			}
		},
	},
	{
		Name: "scenario7",
		Desc: "WAN utilization vs congestion control: reno vs cubic across the RTT ladder",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			cc := ccFlag(fs, "restricts the sweep to one controller (empty = both)")
			rate := rateBpsFlag(fs)
			duration := durationFlag(fs, "s7duration", DefaultScenario7Duration, "traffic time per point (virtual ns)")
			return func(w io.Writer) error {
				ccs := []string{fstack.CCReno, fstack.CCCubic}
				if *cc != "" {
					ccs = []string{*cc}
				}
				// The paper's BDP ladder: 10/50/100/200 ms RTT.
				results, err := RunScenario7RTTSweep([]int64{5e6, 25e6, 50e6, 100e6}, ccs, *rate, *duration)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario7(results))
				return nil
			}
		},
	},
	{
		Name: "scenario8",
		Desc: "connection churn storm: idle 100k-conn population held while rate-paced short flows churn",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			conns := fs.Int("conns", 100_000, "idle connection population held across the churn")
			rate := fs.Float64("rate", 50_000, "offered churn rate (flows/s; the ladder tops out here)")
			shards := shardsFlag(fs, "server stack shards")
			duration := durationFlag(fs, "s8duration", DefaultScenario8Duration, "churn time per point (virtual ns)")
			atLeast1(fs, "conns")
			positive(fs, "rate")
			return func(w io.Writer) error {
				results, err := RunScenario8RateSweep(*shards, *conns, []float64{*rate / 4, *rate / 2, *rate}, *duration)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario8(results))
				return nil
			}
		},
	},
	{
		Name: "scenario9",
		Desc: "request/response tail latency: HTTP/1.1 keep-alive and DNS-shaped UDP, p50/p99/p999 per request",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			proto := fs.String("proto", "", "protocol: http or dns (empty = both)")
			rate := fs.Float64("rate", 20_000, "open-loop offered rate (requests/s; the ladder tops out here)")
			conns := fs.Int("conns", 32, "connection/concurrency count (ladder top of the closed-loop sweep)")
			loss := lossFlag(fs, "link loss rate")
			delay := delayFlag(fs, "link one-way delay (ns)")
			shards := shardsFlag(fs, "server stack shards (and client workers)")
			duration := durationFlag(fs, "s9duration", DefaultScenario9Duration, "measured time per point (virtual ns)")
			atLeast1(fs, "conns")
			positive(fs, "rate")
			so := obsFlags(fs)
			return func(w io.Writer) error {
				protos := []string{"http", "dns"}
				switch *proto {
				case "":
				case "http", "dns":
					protos = []string{*proto}
				default:
					return fmt.Errorf("-proto must be http or dns, not %q", *proto)
				}
				link := netem.Config{LossRate: *loss, DelayNS: *delay}
				rates := []float64{*rate / 4, *rate / 2, *rate}
				concs := []int{max(*conns/4, 1), max(*conns/2, 1), *conns}
				path := fmt.Sprintf("(%.2f%% loss, %.0f ms RTT)", *loss*100, float64(2**delay)/1e6)
				for _, proto := range protos {
					open, err := RunScenario9RateSweep(proto, *shards, *conns, rates, link, *duration, *so)
					if err != nil {
						return err
					}
					fmt.Fprint(w, FormatScenario9(proto+" open-loop rate sweep "+path, open))
					closed, err := RunScenario9ConcurrencySweep(proto, *shards, concs, link, *duration, *so)
					if err != nil {
						return err
					}
					fmt.Fprint(w, FormatScenario9(proto+" closed-loop concurrency sweep "+path, closed))
				}
				return nil
			}
		},
	},
	{
		Name: "scenario10",
		Desc: "fault storm: injected capability faults, blast radius and time-to-recovery, baseline vs cheri",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := Scenario10Config{}
			fs.IntVar(&cfg.Shards, "shards", 4, "compartments, one stack + server each")
			fs.IntVar(&cfg.Faults, "faults", 4, "injected capability-fault count")
			fs.Int64Var(&cfg.MTBFNS, "mtbf", 60e6, "mean time between faults (virtual ns)")
			fs.IntVar(&cfg.Conns, "conns", 4, "closed-loop keep-alive connections per shard")
			fs.Int64Var(&cfg.DurationNS, "s10duration", DefaultScenario10Duration, "measured time (virtual ns)")
			atLeast1(fs, "shards", "faults", "conns")
			positive(fs, "mtbf", "s10duration")
			so := obsFlags(fs)
			return func(w io.Writer) error {
				results, err := RunScenario10Sweep(cfg, *so)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario10(results))
				return nil
			}
		},
	},
}

// LookupScenario resolves a registered name.
func LookupScenario(name string) (ScenarioEntry, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return ScenarioEntry{}, false
}

// ScenarioNames lists the registered names in order.
func ScenarioNames() []string {
	names := make([]string, len(Registry))
	for i, e := range Registry {
		names[i] = e.Name
	}
	return names
}

// FormatScenarioList renders the registry for `cherinet list`, each
// entry with the flags its Bind declares.
func FormatScenarioList() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Registered experiments (cherinet <name> [flags], `cherinet all` runs every one):\n")
	for _, e := range Registry {
		fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
		e.Bind(fs)
		var flags []string
		fs.VisitAll(func(f *flag.Flag) { flags = append(flags, "-"+f.Name) })
		if flags == nil {
			flags = []string{"-"}
		}
		fmt.Fprintf(&b, "  %-10s %s\n  %10s   flags: %s\n", e.Name, e.Desc, "", strings.Join(flags, " "))
	}
	return b.String()
}

// SuggestScenarios returns registered names within a small edit
// distance of the (unknown) name, best first — the "did you mean"
// list.
func SuggestScenarios(name string) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	for _, e := range Registry {
		d := editDistance(strings.ToLower(name), e.Name)
		// Accept near misses and prefix matches ("scenario" → all
		// scenarioN entries).
		if d <= 2 || strings.HasPrefix(e.Name, strings.ToLower(name)) {
			if d > 2 {
				d = 3 // prefix-only matches rank after true near misses
			}
			cands = append(cands, cand{e.Name, d})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	var out []string
	for _, c := range cands {
		out = append(out, c.name)
	}
	return out
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// powersOfTwo lists 1, 2, 4, ... up to max.
func powersOfTwo(max int) []int {
	var out []int
	for k := 1; k <= max; k *= 2 {
		out = append(out, k)
	}
	return out
}

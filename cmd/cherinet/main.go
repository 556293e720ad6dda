// Command cherinet regenerates the tables and figures of "Enabling
// Security on the Edge: A CHERI Compartmentalized Network Stack"
// (DATE 2025) on the simulated Morello/CheriBSD testbed, plus the
// post-paper scenarios built on the declarative testbed layer.
//
// Usage:
//
//	cherinet list              # print the experiment registry
//	cherinet <name> [flags]    # run one experiment (see `cherinet list`)
//	cherinet all               # run every registered experiment
//
// Experiments and their flags come from internal/core's scenario
// registry: each experiment declares the flags it reads, and one it
// does not read is a usage error. An unknown name suggests the nearest
// registered ones.
//
// The -parallel flag sets how many of a scenario's sweep cells run at
// once: 0 (the default) is one per core, N at most N, 1 sequential. A
// cell — one bed — always runs on one goroutine, and every report is
// byte-identical at any value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: args without the program name in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintf(stderr, "usage: cherinet {list|all|%s} [flags]\n", strings.Join(core.ScenarioNames(), "|"))
		fmt.Fprintf(stderr, "run `cherinet list` for descriptions and per-experiment flags\n")
		return 2
	}
	cmd := args[0]
	if cmd == "list" {
		fmt.Fprint(stdout, core.FormatScenarioList())
		return 0
	}
	entries := core.Registry
	if cmd != "all" {
		e, ok := core.LookupScenario(cmd)
		if !ok {
			fmt.Fprintf(stderr, "cherinet: unknown experiment %q\n", cmd)
			if sugg := core.SuggestScenarios(cmd); len(sugg) > 0 {
				fmt.Fprintf(stderr, "did you mean: %s?\n", strings.Join(sugg, ", "))
			}
			fmt.Fprintf(stderr, "run `cherinet list` for the registry\n")
			return 2
		}
		entries = []core.ScenarioEntry{e}
	}

	front, _, runs := bind(cmd, entries, stderr)
	parallel := front.Int("parallel", 0, "sweep cells run at once (0 = one per core, N = at most N, 1 = sequential; output is identical at any value)")
	if err := front.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "invalid value %d for flag -parallel: want 0 or a positive cell count\n", *parallel)
		front.Usage()
		return 2
	}
	core.SetParallelism(*parallel)

	for i, e := range entries {
		if err := runs[i](stdout); err != nil {
			fmt.Fprintf(stderr, "cherinet %s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// bind gives every entry a flag set of its own to declare its flags on,
// and returns them with the entries' runs and the front set that parses
// the command line: it knows each name some entry declared and hands
// the value to every entry that did. So a flag the experiment does not
// read is a usage error, and under `all` a flag reaches all the
// experiments that read it (-rate is a bottleneck in bits/s to
// scenario5 and 7, flows/s to scenario8, requests/s to scenario9) and
// is an error only if none does.
func bind(cmd string, entries []core.ScenarioEntry, stderr io.Writer) (front *flag.FlagSet, sets []*flag.FlagSet, runs []func(io.Writer) error) {
	front = flag.NewFlagSet("cherinet "+cmd, flag.ContinueOnError)
	front.SetOutput(stderr)
	for _, e := range entries {
		fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
		runs = append(runs, e.Bind(fs))
		sets = append(sets, fs)
		fs.VisitAll(func(f *flag.Flag) {
			if front.Lookup(f.Name) != nil {
				return
			}
			front.Func(f.Name, f.Usage, func(v string) error {
				for _, fs := range sets {
					if fs.Lookup(f.Name) == nil {
						continue
					}
					if err := fs.Set(f.Name, v); err != nil {
						return err
					}
				}
				return nil
			})
			front.Lookup(f.Name).DefValue = f.DefValue
		})
	}
	return front, sets, runs
}

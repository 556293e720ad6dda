// Command bench is the repository's benchmark: six workloads driven
// through the exported scenario entry points, end-to-end metrics from
// untraced runs and a per-layer host-cost ledger from a traced run.
// See README.md in this directory.
//
//	bench                                   the whole suite, results JSON written
//	bench -workload W -seed N -seconds S -trace 0|1
//	                                        one run; last stdout line is the result object
//	bench -compare A.json B.json            apply BENCHMARK.json's bounds to two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// detailPrefix marks the single run's evidence line, which the suite
// copies into its results file.
const detailPrefix = "detail "

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print the result line (default: the whole suite)")
	seed := fs.Uint64("seed", 0, "workload seed; 0 keeps each scenario's built-in seed")
	seconds := fs.Float64("seconds", 15, "measuring time per run")
	trace := fs.Int("trace", 0, "with -workload: 1 = the traced run (per-layer metrics), 0 = the untraced run (end-to-end metrics)")
	quick := fs.Bool("quick", false, "with -workload: short virtual durations, one pass, minimal probe counts (the self-test profile)")
	rounds := fs.Int("rounds", 5, "suite: untraced runs per workload, interleaved round-robin")
	out := fs.String("out", ".bench_build/results.json", "suite: where the results JSON goes")
	cmp := fs.Bool("compare", false, "compare two results files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		return compare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
	case *name == "":
		return runSuite(*seed, *seconds, *rounds, *out, stdout)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return printResult(stdout, res)
}

// printResult prints every metric by name with its unit, the evidence
// line, and last the result object.
func printResult(stdout io.Writer, res result) int {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-36s %16.6f %s\n", name, m.Value, m.Unit)
	}
	for _, p := range res.detail.Problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	detail, err := json.Marshal(res.detail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n", detailPrefix, detail)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// cherinet runs the command in-process and returns what it wrote and
// its exit code.
func cherinet(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestListGolden pins `cherinet list` byte for byte.
func TestListGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, _, code := cherinet("list")
	if code != 0 || got != string(want) {
		t.Fatalf("cherinet list (exit %d) drifted:\n-- got --\n%s\n-- want --\n%s", code, got, want)
	}
}

func TestUnknownExperimentSuggests(t *testing.T) {
	out, errOut, code := cherinet("scenaro5")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want exit 2 and nothing on stdout", code, out)
	}
	if !strings.Contains(errOut, "did you mean: scenario5") {
		t.Fatalf("no suggestion on stderr:\n%s", errOut)
	}
	if _, _, code := cherinet(); code != 2 {
		t.Fatalf("no arguments: exit %d, want 2", code)
	}
}

// TestUndeclaredFlagRejected pins the per-entry flag sets: a flag the
// experiment does not read is a usage error naming that experiment's
// flags, not a silently ignored setting; so is a value its flag refuses.
func TestUndeclaredFlagRejected(t *testing.T) {
	for _, args := range [][]string{
		{"scenario6", "-loss", "0.02"},
		{"scenario7", "-shards", "8"},
		{"table2", "-flows", "2"},
		{"scenario7", "-cc", "vegas"},
		{"all", "-nosuchflag", "1"},
		{"scenario4", "-parallel", "-3"},
	} {
		out, errOut, code := cherinet(args...)
		if code != 2 || out != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 before anything runs", args, code, out)
		}
		if !strings.Contains(errOut, "Usage of cherinet "+args[0]) || !strings.Contains(errOut, "-parallel") {
			t.Errorf("%v: stderr is not the experiment's usage:\n%s", args, errOut)
		}
	}
	_, errOut, _ := cherinet("scenario4", "-parallel", "-3")
	if !strings.Contains(errOut, "invalid value -3 for flag -parallel") {
		t.Errorf("a negative -parallel should be refused by name:\n%s", errOut)
	}
	_, errOut, _ = cherinet("scenario7", "-shards", "8")
	if !strings.Contains(errOut, "-s7duration") || strings.Contains(errOut, "-flows") {
		t.Errorf("scenario7's usage should list its own flags only:\n%s", errOut)
	}
}

// TestOutOfRangeValueRejected pins the range every numeric flag carries,
// wherever it is declared: a value outside it is a usage error (exit 2)
// naming the flag, before anything runs. At the parent commit
// `fig5 -payload 0` and `fig4 -payload -5` never returned, `-iters 0`
// silently measured once, `-payload 400000` failed mid-run, and
// `scenario7 -rate -5` printed -279306629 % utilisation with exit 0.
func TestOutOfRangeValueRejected(t *testing.T) {
	for _, tc := range []struct{ cmd, flag, value string }{
		{"fig4", "iters", "0"},
		{"fig4", "payload", "-5"},
		{"fig5", "payload", "0"},
		{"fig6", "payload", "400000"},
		{"fig5", "interval", "-1"},
		{"scenario4", "shards", "0"},
		{"scenario4", "shards", "9"}, // used to sweep to 8 in silence
		{"scenario8", "shards", "9"}, // used to die inside Build, exit 1
		{"scenario9", "shards", "16"},
		{"scenario4", "duration", "-1"},
		{"scenario5", "rate", "-1"},
		{"scenario5", "loss", "1"},
		{"scenario5", "loss", "-0.1"},
		{"scenario5", "delay", "-1"},
		{"scenario5", "s5duration", "0"},
		{"scenario6", "ackrate", "-1"},
		{"scenario6", "s6duration", "0"},
		{"scenario7", "rate", "-5"},
		{"scenario7", "s7duration", "-1"},
		{"scenario8", "rate", "0"},
		{"scenario8", "conns", "0"},
		{"scenario8", "s8duration", "0"},
		{"scenario9", "rate", "NaN"},
		{"scenario9", "loss", "1.5"},
		{"scenario9", "delay", "-5"},
		{"scenario9", "conns", "0"},
		{"scenario9", "s9duration", "0"},
		{"scenario10", "faults", "0"},
		{"scenario10", "mtbf", "0"},
		{"scenario10", "s10duration", "-1"},
		{"all", "rate", "-5"},
	} {
		out, errOut, code := cherinet(tc.cmd, "-"+tc.flag, tc.value)
		if code != 2 || out != "" {
			t.Errorf("%s -%s %s: exit %d, stdout %q; want exit 2 before anything runs", tc.cmd, tc.flag, tc.value, code, out)
		}
		if want := "invalid value \"" + tc.value + "\" for flag -" + tc.flag + ": must be "; !strings.Contains(errOut, want) {
			t.Errorf("%s -%s %s: stderr does not name the flag and its range:\n%s", tc.cmd, tc.flag, tc.value, errOut)
		}
	}
}

// TestAllFlagFanOut pins what a flag means under `cherinet all`: it
// reaches every experiment that declares it (and no other), whatever
// the unit there — -rate is bits/s for scenario5 and 7, flows/s for
// scenario8, requests/s for scenario9; -conns sizes scenario8's idle
// population, scenario9's concurrency and scenario10's per-shard
// connections.
func TestAllFlagFanOut(t *testing.T) {
	front, sets, _ := bind("all", core.Registry, io.Discard)
	if err := front.Parse([]string{"-rate", "12345", "-conns", "7"}); err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, fs := range sets {
		fs.Visit(func(f *flag.Flag) { // the flags that were set
			got[f.Name+"="+f.Value.String()] = append(got[f.Name+"="+f.Value.String()], fs.Name())
		})
	}
	want := map[string]string{
		"rate=12345": "scenario5 scenario7 scenario8 scenario9",
		"conns=7":    "scenario8 scenario9 scenario10",
	}
	for k, who := range want {
		if strings.Join(got[k], " ") != who {
			t.Errorf("%s reached %v, want %s", k, got[k], who)
		}
	}
	if len(got) != len(want) {
		t.Errorf("flags set: %v, want exactly %v", got, want)
	}
	// A value one of the declaring experiments refuses fails the parse.
	if _, errOut, code := cherinet("all", "-shards", "x"); code != 2 || !strings.Contains(errOut, "-shards") {
		t.Errorf("all -shards x: exit %d, stderr:\n%s", code, errOut)
	}
}

// TestBindParsesOwnDefaults feeds every registered entry's flags their
// own printed defaults back: each must parse.
func TestBindParsesOwnDefaults(t *testing.T) {
	for _, e := range core.Registry {
		fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
		if e.Bind(fs) == nil {
			t.Errorf("%s: Bind returned no run", e.Name)
		}
		fs.VisitAll(func(f *flag.Flag) {
			if err := fs.Set(f.Name, f.DefValue); err != nil {
				t.Errorf("%s: -%s rejects its own default %q: %v", e.Name, f.Name, f.DefValue, err)
			}
		})
	}
}

// TestScenario4MatchesLibrary runs a short sweep through the command
// and through the library: the bytes must match, so the flags reach the
// sweep unchanged.
func TestScenario4MatchesLibrary(t *testing.T) {
	results, err := core.RunScenario4Sweep([]int{1, 2}, 4, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	want := core.FormatScenario4(results) + "\n"
	got, errOut, code := cherinet("scenario4", "-shards", "2", "-flows", "4", "-duration", "50000000")
	if code != 0 || got != want {
		t.Fatalf("exit %d, stderr %q\n-- got --\n%s\n-- want --\n%s", code, errOut, got, want)
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checksum"
	"repro/internal/fstack"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// s5ObsConfig is a short lossy WAN point with every instrument on.
func s5ObsConfig(pcapDir string) Scenario5Config {
	return Scenario5Config{
		Modern: true,
		Link:   netem.Config{LossRate: 0.005, DelayNS: 5e6},
		Obs: testbed.ObsSpec{
			TraceEvents: 1 << 16,
			SampleNS:    1e6,
			Latency:     true,
			PcapDir:     pcapDir,
		},
	}
}

// TestScenario5Observability is the tentpole acceptance gate: a traced
// Scenario 5 run must yield a flight-recorder trace spanning at least 4
// event types from at least 3 layers, a valid Chrome trace-event JSON,
// sampled metrics, latency percentiles in the summary, and a non-empty
// link capture with the standard libpcap framing.
func TestScenario5Observability(t *testing.T) {
	dir := t.TempDir()
	r, err := RunScenario5(s5ObsConfig(dir), 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Obs == nil || r.Obs.Trace == nil {
		t.Fatal("traced run returned no observability state")
	}

	// Flight recorder: breadth over event types and layers.
	evs := r.Obs.Trace.Snapshot()
	if len(evs) == 0 {
		t.Fatal("trace recorded no events")
	}
	types := make(map[obs.EventType]bool)
	layers := make(map[string]bool)
	for _, e := range evs {
		types[e.Type] = true
		layers[e.Type.Layer()] = true
	}
	if len(types) < 4 {
		t.Errorf("trace spans %d event types, want >= 4 (%v)", len(types), types)
	}
	if len(layers) < 3 {
		t.Errorf("trace spans %d layers, want >= 3 (%v)", len(layers), layers)
	}

	// Chrome exporter: the output must be one valid JSON object with a
	// traceEvents array covering the recorded events.
	var buf bytes.Buffer
	if err := r.Obs.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) < len(evs) {
		t.Errorf("Chrome trace has %d events for %d recorded", len(decoded.TraceEvents), len(evs))
	}

	// Metrics sampler: the 100 ms run at a 1 ms interval must have
	// produced a timeseries.
	var csv bytes.Buffer
	if err := r.Obs.Metrics.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(csv.Bytes(), []byte("\n")) - 1; n < 50 {
		t.Errorf("metrics sampled %d times, want >= 50", n)
	}

	// Latency percentiles surface in the human summary.
	out := FormatScenario5("traced", []Scenario5Result{r})
	for _, want := range []string{"p50=", "p99=", "p999=", "datapath", "rtt"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if r.Obs.Datapath.Count() == 0 || r.Obs.RTT.Count() == 0 {
		t.Errorf("latency histograms empty: datapath n=%d rtt n=%d",
			r.Obs.Datapath.Count(), r.Obs.RTT.Count())
	}

	// Link capture: standard libpcap magic and at least one record.
	data, err := os.ReadFile(filepath.Join(dir, "peer0.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= 24 {
		t.Fatalf("pcap holds no records (%d bytes)", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data); magic != 0xa1b2c3d4 {
		t.Fatalf("pcap magic %#x, want 0xa1b2c3d4", magic)
	}
}

// TestScenario5ObsExport drives one sweep through the export path: per-point Chrome trace, metrics CSV and JSON must land under
// their directories and parse.
func TestScenario5ObsExport(t *testing.T) {
	dir := t.TempDir()
	so := SweepObs{
		TraceDir:   filepath.Join(dir, "trace"),
		MetricsDir: filepath.Join(dir, "metrics"),
		PcapDir:    filepath.Join(dir, "pcap"),
	}
	// One loss point is four cells; the baseline SACK one is checked.
	rs, err := RunScenario5LossSweep([]float64{0.005}, 5e6, 0, "", 100e6, so)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Obs == nil {
		t.Fatal("export destinations did not switch instruments on")
	}
	cfg := Scenario5Config{Modern: true, Link: netem.Config{LossRate: 0.005, DelayNS: 5e6}}
	label := scenario5Label(cfg)

	raw, err := os.ReadFile(filepath.Join(so.TraceDir, label+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("exported trace is empty")
	}

	csvRaw, err := os.ReadFile(filepath.Join(so.MetricsDir, label+".metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvRaw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("metrics CSV has %d lines, want header + samples", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_ns,") {
		t.Errorf("metrics CSV header %q missing time_ns column", lines[0])
	}
	for _, col := range []string{".conns", ".accept_queue"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("metrics CSV header %q missing per-env %s gauge", lines[0], col)
		}
	}

	jsonRaw, err := os.ReadFile(filepath.Join(so.MetricsDir, label+".metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mj any
	if err := json.Unmarshal(jsonRaw, &mj); err != nil {
		t.Fatalf("exported metrics JSON invalid: %v", err)
	}

	if _, err := os.Stat(filepath.Join(so.PcapDir, label, "peer0.pcap")); err != nil {
		t.Errorf("per-point pcap missing: %v", err)
	}
}

// TestSweepObsReachesScenario9And10 pins the per-point export on the
// other two scenarios whose config carries an ObsSpec: every point's
// trace, timeseries and captures land under its label, and the report
// is byte-identical to the uninstrumented sweep's.
func TestSweepObsReachesScenario9And10(t *testing.T) {
	skipUnderRace(t)
	dir := t.TempDir()
	so := SweepObs{TraceDir: dir, MetricsDir: dir, PcapDir: filepath.Join(dir, "pcap")}
	exported := func(label, peer string) {
		t.Helper()
		for _, name := range []string{label + ".trace.json", label + ".metrics.csv", filepath.Join("pcap", label, peer+".pcap")} {
			if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
				t.Errorf("%s missing or empty (%v)", name, err)
			}
		}
	}

	s9 := func(o ...SweepObs) string {
		rs, err := RunScenario9RateSweep("dns", 2, 8, []float64{4000}, netem.Config{}, 20e6, o...)
		if err != nil {
			t.Fatal(err)
		}
		return FormatScenario9("obs", rs)
	}
	if plain, traced := s9(), s9(so); plain != traced {
		t.Errorf("scenario 9 report moved under observation:\n%s\nvs\n%s", plain, traced)
	}
	exported("s9_dns_baseline_open4000", "peer0")
	exported("s9_dns_cheri_open4000", "peer0")

	cfg := Scenario10Config{Shards: 2, Faults: 1, MTBFNS: 10e6, Conns: 2, DurationNS: 50e6}
	s10 := func(o ...SweepObs) string {
		rs, err := RunScenario10Sweep(cfg, o...)
		if err != nil {
			t.Fatal(err)
		}
		return FormatScenario10(rs)
	}
	if plain, traced := s10(), s10(so); plain != traced {
		t.Errorf("scenario 10 report moved under observation:\n%s\nvs\n%s", plain, traced)
	}
	exported("s10_baseline_clean", "peer0")
	exported("s10_cheri_1F", "peer1")
}

// TestScenario9PcapChecksums: a tap reads the bytes the wire carries.
// Every TCP and UDP checksum in the link captures of a short traced
// Scenario 9 run, HTTP and DNS, verifies — although the stacks leave
// the sums to the NIC, which fills one in only where a tap reads it.
func TestScenario9PcapChecksums(t *testing.T) {
	skipUnderRace(t)
	for _, proto := range []string{"http", "dns"} {
		dir := t.TempDir()
		if _, err := RunScenario9RateSweep(proto, 1, 4, []float64{2000}, netem.Config{}, 10e6, SweepObs{PcapDir: dir}); err != nil {
			t.Fatal(err)
		}
		caps, err := filepath.Glob(filepath.Join(dir, "*", "*.pcap"))
		if err != nil || len(caps) == 0 {
			t.Fatalf("%s: no captures (%v)", proto, err)
		}
		segs := 0
		for _, name := range caps {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for off := 24; off+16 <= len(raw); {
				n := int(binary.LittleEndian.Uint32(raw[off+8:]))
				frame := raw[off+16 : off+16+n]
				off += 16 + n
				if eth, err := fstack.ParseEthHeader(frame); err != nil || eth.Type != fstack.EtherTypeIPv4 {
					continue
				}
				ip, ihl, err := fstack.ParseIPv4Header(frame[fstack.EthHeaderLen:])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ip.Proto != fstack.ProtoTCP && ip.Proto != fstack.ProtoUDP {
					continue
				}
				seg := frame[fstack.EthHeaderLen+ihl : fstack.EthHeaderLen+int(ip.TotalLen)]
				pseudo := uint32(binary.BigEndian.Uint16(ip.Src[:])) + uint32(binary.BigEndian.Uint16(ip.Src[2:])) +
					uint32(binary.BigEndian.Uint16(ip.Dst[:])) + uint32(binary.BigEndian.Uint16(ip.Dst[2:])) +
					uint32(ip.Proto) + uint32(len(seg))
				if checksum.Finish(checksum.Add(pseudo, seg)) != 0 {
					t.Fatalf("%s: a captured %s segment's checksum does not verify: % x", name, proto, seg)
				}
				segs++
			}
		}
		if segs < 10 {
			t.Fatalf("%s: the captures hold %d TCP/UDP segments", proto, segs)
		}
	}
}

// TestGateCrossingEvents wires the flight recorder into a Scenario 2
// intravisor and checks that gated F-Stack calls leave EvGateCrossing
// events carrying the running crossing count.
func TestGateCrossingEvents(t *testing.T) {
	clk := sim.NewVClock()
	s, err := NewScenario2(clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(1024)
	s.Local.IV.SetTrace(tr, clk.Now)

	api := s.Apps[0]
	before := s.Local.IV.Crossings.Load()
	api.Socket(fstack.SockStream) // one gated call is enough
	crossed := s.Local.IV.Crossings.Load() - before
	if crossed == 0 {
		t.Fatal("gated call did not cross")
	}
	var got int
	for _, e := range tr.Snapshot() {
		if e.Type == obs.EvGateCrossing {
			got++
		}
	}
	if got != int(crossed) {
		t.Fatalf("recorded %d gate-crossing events for %d crossings", got, crossed)
	}
}

// TestScenario4ShardedStatsConsistency is the sharded-stats invariant:
// at many instants mid-run, the aggregate StackStats must equal the sum
// of the per-shard snapshots, every counter must be monotonic, and the
// retransmit total must equal its fast/SACK/RTO breakdown.
func TestScenario4ShardedStatsConsistency(t *testing.T) {
	s, err := NewScenario4(sim.NewVClock(), Scenario4Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ss := s.Sharded

	checks, mismatches := 0, 0
	var prevTotal uint64
	iter := 0
	visitHook = func(now int64, active bool) {
		iter++
		if iter%64 != 0 {
			return
		}
		checks++
		agg := ss.Stats()
		sum := ss.Shards()[0].Stats()
		for i := 1; i < ss.NumShards(); i++ {
			sh := ss.Shards()[i].Stats()
			sum.Add(sh)
		}
		if agg != sum {
			mismatches++
			if mismatches == 1 {
				t.Errorf("at %d ns: aggregate %+v != per-shard sum %+v", now, agg, sum)
			}
		}
		if agg.Retransmit != agg.FastRetransmit+agg.SACKRetransmit+agg.RTORetransmit {
			t.Errorf("at %d ns: retransmit %d != breakdown %d+%d+%d", now,
				agg.Retransmit, agg.FastRetransmit, agg.SACKRetransmit, agg.RTORetransmit)
		}
		total := agg.RxFrames + agg.TxFrames + agg.Retransmit + agg.DupAcks
		if total < prevTotal {
			t.Errorf("at %d ns: counters went backward (%d < %d)", now, total, prevTotal)
		}
		prevTotal = total
	}
	defer func() { visitHook = nil }()

	if _, err := Scenario4Bandwidth(s, LocalIsClient, 8, 100e6); err != nil {
		t.Fatal(err)
	}
	if checks < 10 {
		t.Fatalf("only %d mid-run checks fired; the hook did not observe the run", checks)
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d mid-run aggregate mismatches", mismatches, checks)
	}
}

package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func TestTraceRingKeepsMostRecent(t *testing.T) {
	tr := NewTrace(0) // clamps to the minimum capacity
	if len(tr.ring) != minTraceCapacity {
		t.Fatalf("capacity %d, want %d", len(tr.ring), minTraceCapacity)
	}
	n := len(tr.ring) + 10
	for i := 0; i < n; i++ {
		tr.Record(int64(i), EvNicTxBurst, 3, int64(i), 0, 0)
	}
	if tr.Total() != uint64(n) {
		t.Fatalf("total %d, want %d", tr.Total(), n)
	}
	if tr.Len() != len(tr.ring) {
		t.Fatalf("len %d, want full ring %d", tr.Len(), len(tr.ring))
	}
	snap := tr.Snapshot()
	if len(snap) != len(tr.ring) {
		t.Fatalf("snapshot %d events, want %d", len(snap), len(tr.ring))
	}
	// A flight recorder keeps the newest events: the oldest surviving
	// record is event #10, and timestamps are strictly chronological.
	if snap[0].TS != 10 || snap[len(snap)-1].TS != int64(n-1) {
		t.Fatalf("snapshot spans [%d,%d], want [10,%d]", snap[0].TS, snap[len(snap)-1].TS, n-1)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].TS <= snap[i-1].TS {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}
	// Nil recorder: Record must be a safe no-op (the hooks' contract).
	var nilTr *Trace
	nilTr.Record(1, EvNetemDrop, 0, 0, 0, 0)
}

func TestEventTypeNamesAndLayers(t *testing.T) {
	seen := map[string]bool{}
	for ty := EventType(0); ty < evTypeCount; ty++ {
		if ty.String() == "unknown" || ty.String() == "" {
			t.Fatalf("event type %d has no name", ty)
		}
		if ty.Layer() == "unknown" || ty.Layer() == "" {
			t.Fatalf("event type %d has no layer", ty)
		}
		if !strings.HasPrefix(ty.String(), ty.Layer()) && ty.Layer() != "fstack" && ty.Layer() != "intravisor" {
			t.Fatalf("event name %q does not carry its layer %q", ty, ty.Layer())
		}
		seen[ty.Layer()] = true
	}
	for _, want := range []string{"netem", "nic", "dpdk", "fstack", "intravisor"} {
		if !seen[want] {
			t.Fatalf("no event type covers layer %q", want)
		}
	}
}

// TestChromeTraceRoundTrip writes the exporter's output and reads it
// back through encoding/json — the satellite's contract that the trace
// loads anywhere a JSON parser does.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTrace(256)
	tr.Record(1_000, EvNetemEnqueue, 7, 1514, 51_000, 3)
	tr.Record(2_000, EvNetemDrop, 7, 1514, DropQueue, 0)
	tr.Record(3_000, EvNicTxBurst, 0, 4, 5_792, 0)
	tr.Record(4_000, EvTCPState, 2, 3, 4, 5401)
	tr.Record(5_000, EvTCPRetransmit, 2, RetxSACK, 123456, 5401)
	tr.Record(6_000, EvTCPCwnd, 2, 28_960, 0, 5401)
	tr.Record(7_000, EvGateCrossing, 0, 42, 0, 0)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	// 5 thread-name metadata records + 7 events.
	if len(doc.TraceEvents) != len(chromeLayers)+7 {
		t.Fatalf("round-tripped %d events, want %d", len(doc.TraceEvents), len(chromeLayers)+7)
	}
	byName := map[string]ChromeEvent{}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		byName[e.Name] = e
		phases[e.Phase] = true
	}
	if !phases["M"] || !phases["i"] || !phases["C"] {
		t.Fatalf("missing phases in %v", phases)
	}
	drop, ok := byName["netem.drop"]
	if !ok {
		t.Fatalf("netem.drop missing from export")
	}
	if drop.TS != 2.0 { // 2000 ns = 2 µs
		t.Fatalf("drop ts %v µs, want 2", drop.TS)
	}
	if drop.Args["kind"] != "queue" {
		t.Fatalf("drop kind %v, want queue", drop.Args["kind"])
	}
	retx := byName["tcp.retransmit"]
	if retx.Args["kind"] != "sack" {
		t.Fatalf("retransmit kind %v, want sack", retx.Args["kind"])
	}
	// The cwnd counter series carries its value under args.cwnd.
	var cwnd *ChromeEvent
	for i := range doc.TraceEvents {
		if doc.TraceEvents[i].Phase == "C" {
			cwnd = &doc.TraceEvents[i]
		}
	}
	if cwnd == nil || cwnd.Args["cwnd"] != float64(28_960) {
		t.Fatalf("cwnd counter event missing or wrong: %+v", cwnd)
	}
}

func TestMetricsSamplingAndExport(t *testing.T) {
	m := NewMetrics(1_000_000) // 1 ms
	var rising float64
	m.Gauge("rising", func(now int64) float64 { rising++; return rising })
	m.Gauge("time_ms", func(now int64) float64 { return float64(now) / 1e6 })
	var frames uint64
	m.Gauge("frames", func(int64) float64 { return float64(frames) })

	// Before the first tick the sampler wants to run immediately.
	if at := m.NextDeadline(5); at != 5 {
		t.Fatalf("unanchored deadline %d, want now", at)
	}
	for now := int64(0); now <= 5_000_000; now += 250_000 {
		frames += 10
		m.Tick(now)
	}
	if len(m.rows) != 6 { // t=0,1,2,3,4,5 ms
		t.Fatalf("%d samples, want 6", len(m.rows))
	}
	if at := m.NextDeadline(5_000_000); at != 6_000_000 {
		t.Fatalf("deadline %d, want 6 ms", at)
	}

	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatalf("csv: %v", err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("csv parse: %v", err)
	}
	if len(recs) != 7 {
		t.Fatalf("%d csv rows, want header+6", len(recs))
	}
	wantHdr := []string{"time_ns", "rising", "time_ms", "frames"}
	for i, h := range wantHdr {
		if recs[0][i] != h {
			t.Fatalf("csv header %v, want %v", recs[0], wantHdr)
		}
	}
	if recs[1][0] != "0" || recs[2][0] != "1000000" {
		t.Fatalf("csv times %q,%q", recs[1][0], recs[2][0])
	}
	// The cumulative column is rising.
	first, err1 := strconv.Atoi(recs[1][3])
	last, err2 := strconv.Atoi(recs[6][3])
	if err1 != nil || err2 != nil || first >= last {
		t.Fatalf("counter column not rising: %q -> %q", recs[1][3], recs[6][3])
	}

	buf.Reset()
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("json: %v", err)
	}
	var doc metricsJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if doc.IntervalNS != 1_000_000 || len(doc.TimesNS) != 6 || len(doc.Series) != 3 {
		t.Fatalf("json doc shape: %+v", doc)
	}
	if doc.Series[0].Name != "rising" || len(doc.Series[0].Values) != 6 {
		t.Fatalf("series shape: %+v", doc.Series[0])
	}
}

func TestObsNilSafety(t *testing.T) {
	var o *Obs
	o.Tick(100)
	if o.NextDeadline(100) <= 100 {
		t.Fatalf("nil Obs must report no deadline")
	}
	o = &Obs{}
	o.Tick(100)
	if o.NextDeadline(100) <= 100 {
		t.Fatalf("metrics-less Obs must report no deadline")
	}
}

func TestPcapWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	frame := make([]byte, 60)
	for i := range frame {
		frame[i] = byte(i)
	}
	if err := w.WritePacket(1_500_000_000, frame); err != nil { // t=1.5 s
		t.Fatalf("write: %v", err)
	}
	if w.Err() != nil {
		t.Fatalf("err: %v", w.Err())
	}
	b := buf.Bytes()
	if len(b) != 24+16+60 {
		t.Fatalf("capture length %d", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:]) != pcapMagic {
		t.Fatalf("bad magic")
	}
	if sec := binary.LittleEndian.Uint32(b[24:]); sec != 1 {
		t.Fatalf("ts sec %d, want 1", sec)
	}
	if usec := binary.LittleEndian.Uint32(b[28:]); usec != 500_000 {
		t.Fatalf("ts usec %d, want 500000", usec)
	}
	if caplen := binary.LittleEndian.Uint32(b[32:]); caplen != 60 {
		t.Fatalf("caplen %d", caplen)
	}
}

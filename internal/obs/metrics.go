package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Metrics is the registry: named gauges, sampled by calling back and
// recorded into per-series timeseries every SampleNS of virtual time. Registration happens at wiring time;
// Tick runs from the experiment driver, so samples land at
// deterministic virtual instants.
type Metrics struct {
	interval int64
	names    []string
	gauges   []func(now int64) float64
	times    []int64
	rows     [][]float64
	nextAt   int64
	started  bool
}

// NewMetrics builds a registry sampling every intervalNS of virtual
// time (minimum 1 µs).
func NewMetrics(intervalNS int64) *Metrics {
	if intervalNS < 1_000 {
		intervalNS = 1_000
	}
	return &Metrics{interval: intervalNS}
}

// Gauge registers a named gauge; fn is called at each sample instant
// with the current virtual time. Gauges run on the driver goroutine —
// they read component state but must not drive the simulation.
func (m *Metrics) Gauge(name string, fn func(now int64) float64) {
	m.names = append(m.names, name)
	m.gauges = append(m.gauges, fn)
}

// Tick samples every registered series when a sample is due. The first
// call anchors the schedule at its `now`.
func (m *Metrics) Tick(now int64) {
	if !m.started {
		m.started = true
		m.nextAt = now
	}
	if now < m.nextAt {
		return
	}
	row := make([]float64, len(m.gauges))
	for i, fn := range m.gauges {
		row[i] = fn(now)
	}
	m.times = append(m.times, now)
	m.rows = append(m.rows, row)
	m.nextAt = now + m.interval
}

// NextDeadline reports the next sample instant (now, before the first
// Tick anchors the schedule).
func (m *Metrics) NextDeadline(now int64) int64 {
	if !m.started {
		return now
	}
	return m.nextAt
}

// WriteCSV streams the timeseries as CSV: a time_ns column followed by
// one column per series.
func (m *Metrics) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"time_ns"}, m.names...)); err != nil {
		return err
	}
	rec := make([]string, 1+len(m.names))
	for i, row := range m.rows {
		rec[0] = strconv.FormatInt(m.times[i], 10)
		for j, v := range row {
			rec[1+j] = formatSample(v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatSample renders a sample compactly: integers without a decimal
// point, everything else with enough digits to round-trip.
func formatSample(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// metricsJSON is the JSON export shape.
type metricsJSON struct {
	IntervalNS int64              `json:"interval_ns"`
	TimesNS    []int64            `json:"times_ns"`
	Series     []metricSeriesJSON `json:"series"`
}

type metricSeriesJSON struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// WriteJSON streams the timeseries as JSON, one values array per
// series aligned with times_ns.
func (m *Metrics) WriteJSON(w io.Writer) error {
	doc := metricsJSON{IntervalNS: m.interval, TimesNS: m.times}
	for j, name := range m.names {
		vals := make([]float64, len(m.rows))
		for i, row := range m.rows {
			vals[i] = row[j]
		}
		doc.Series = append(doc.Series, metricSeriesJSON{Name: name, Values: vals})
	}
	return json.NewEncoder(w).Encode(doc)
}

// String summarizes the registry for logs.
func (m *Metrics) String() string {
	return fmt.Sprintf("metrics: %d series, %d samples @ %d ns", len(m.names), len(m.rows), m.interval)
}

package core

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/testbed"
)

// SweepObs configures observability for a sweep over a scenario whose
// config carries an ObsSpec (5, 9, 10): where each point's exports land,
// which implies the instruments its bed carries. The zero value
// disables everything (the sweeps' default).
type SweepObs struct {
	// TraceDir, when non-empty, receives one Chrome trace-event JSON
	// per point (<label>.trace.json), loadable in Perfetto.
	TraceDir string
	// MetricsDir, when non-empty, receives the metrics timeseries per
	// point as <label>.metrics.csv and <label>.metrics.json.
	MetricsDir string
	// PcapDir, when non-empty, receives one subdirectory per point
	// holding that run's per-peer link captures.
	PcapDir string
}

// sweepTraceEvents and sweepSampleNS size the instruments an export
// destination implies.
const (
	sweepTraceEvents = 65536
	sweepSampleNS    = int64(1e6) // 1 ms virtual
)

// pointSpec resolves the ObsSpec for one labelled sweep point: export
// destinations imply their instruments, and captures go into a
// per-point subdirectory so points do not overwrite each other.
func (o SweepObs) pointSpec(label string) testbed.ObsSpec {
	var spec testbed.ObsSpec
	if o.TraceDir != "" {
		spec.TraceEvents = sweepTraceEvents
	}
	if o.MetricsDir != "" {
		spec.SampleNS = sweepSampleNS
	}
	spec.Latency = o.TraceDir != "" || o.MetricsDir != ""
	if o.PcapDir != "" {
		spec.PcapDir = filepath.Join(o.PcapDir, label)
	}
	return spec
}

// export writes one point's trace and timeseries to the configured
// directories.
func (o SweepObs) export(ob *obs.Obs, label string) error {
	if ob == nil {
		return nil
	}
	if o.TraceDir != "" && ob.Trace != nil {
		if err := writeTo(o.TraceDir, label+".trace.json", func(f *os.File) error {
			return ob.Trace.WriteChromeTrace(f)
		}); err != nil {
			return err
		}
	}
	if o.MetricsDir != "" && ob.Metrics != nil {
		if err := writeTo(o.MetricsDir, label+".metrics.csv", func(f *os.File) error {
			return ob.Metrics.WriteCSV(f)
		}); err != nil {
			return err
		}
		if err := writeTo(o.MetricsDir, label+".metrics.json", func(f *os.File) error {
			return ob.Metrics.WriteJSON(f)
		}); err != nil {
			return err
		}
	}
	return nil
}

// sweepObserved is sweep for those scenarios: every cell runs with the
// ObsSpec the (optional) SweepObs implies for its label, and its
// instruments — obsOf picks them out of the result — are exported under
// that label. Without a SweepObs the spec is zero and nothing is
// written.
func sweepObserved[C, R any](cells []C, obsOpt []SweepObs, label func(C) string,
	run func(C, testbed.ObsSpec) (R, error), obsOf func(R) *obs.Obs) ([]R, error) {
	var so SweepObs
	if len(obsOpt) > 0 {
		so = obsOpt[0]
	}
	return sweep(cells, func(cfg C) (R, error) {
		name := label(cfg)
		r, err := run(cfg, so.pointSpec(name))
		if err != nil {
			return r, err
		}
		return r, so.export(obsOf(r), name)
	}, label)
}

// writeTo creates dir/name and streams write into it.
func writeTo(dir, name string, write func(f *os.File) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("core: exporting %s: %w", name, err)
	}
	return f.Close()
}

package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the CPU profiles runtime/pprof writes
// (gzip-compressed profile.proto): just enough to recover each sample's
// call stack as function names. Decoding here keeps the benchmark free
// of module dependencies and of a `go tool pprof` subprocess.

// stackSample is one profile sample: function names innermost first
// (inlined frames expanded) and the number of times it was seen.
type stackSample struct {
	funcs []string
	count int64
}

type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("pprof: varint overflow")
}

// next reads one field: its number, and either its varint value or its
// length-delimited bytes.
func (r *pbReader) next() (num int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err != nil {
			return
		}
		if n > uint64(len(r.b)) {
			return 0, 0, nil, io.ErrUnexpectedEOF
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return
}

// repeatedVarints appends a repeated integer field's values, packed or
// not.
func repeatedVarints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed profile.proto into samples.
func parseProfile(raw []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	r := pbReader{b}
	for len(r.b) > 0 {
		num, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				n, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeatedVarints(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0]) // sample_type[0] is samples/count
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				n, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbReader{d}
					for len(l.b) > 0 {
						ln, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				n, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// layers are the repository's modules, by the last element of their
// package path; runtimeBG takes every sample with no frame in any of
// them (the collector, the scheduler, the benchmark's own harness).
var layers = []string{"core", "testbed", "sim", "netem", "nic", "dpdk", "fstack", "connscale",
	"intravisor", "cheri", "hostos", "app", "churn", "iperf", "faultplane", "obs", "stats"}

const runtimeBG = "runtime_bg"

// layerOf names the layer a function belongs to: "" outside
// repro/internal.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	// Receivers and type arguments may contain dots and slashes.
	if i := strings.IndexAny(rest, "[("); i >= 0 {
		rest = rest[:i]
	}
	pkg := rest[strings.LastIndex(rest, "/")+1:]
	if dot := strings.Index(pkg, "."); dot >= 0 {
		return pkg[:dot]
	}
	return ""
}

// leafKind classifies the cross-cutting cost a sample's innermost
// non-repository frames spend: lock operations, map operations, or
// memmove.
func leafKind(fn string) string {
	switch {
	case strings.HasPrefix(fn, "sync."), strings.HasPrefix(fn, "internal/sync."), strings.HasPrefix(fn, "sync/atomic."):
		return "sync"
	case strings.HasPrefix(fn, "runtime.map"), strings.HasPrefix(fn, "internal/runtime/maps."),
		strings.HasPrefix(fn, "runtime.memhash"), strings.HasPrefix(fn, "runtime.aeshash"), strings.HasPrefix(fn, "runtime.strhash"):
		return "maps"
	case fn == "runtime.memmove":
		return "memmove"
	}
	return ""
}

// attribution is a CPU profile charged to layers: each sample goes to
// the package of its innermost repro/internal frame, so lock, map and
// memmove time lands on the layer that called it.
type attribution struct {
	total   int64
	byLayer map[string]int64
	// cross are the overlapping by-leaf shares (sync, maps, memmove).
	cross map[string]int64
	// unknown counts samples whose innermost repository frame is in a
	// package the layer list does not name.
	unknown int64
}

func attribute(samples []stackSample) attribution {
	a := attribution{byLayer: map[string]int64{}, cross: map[string]int64{}}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
sample:
	for _, s := range samples {
		for _, fn := range s.funcs {
			if fn == "runtime.GC" || fn == "main.calibSlice" {
				// The harness's own between-cell collection and
				// calibration are not the program's cost.
				continue sample
			}
		}
		a.total += s.count
		layer := runtimeBG
		kind := ""
		for _, fn := range s.funcs {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
			if kind == "" {
				kind = leafKind(fn)
			}
		}
		if kind != "" {
			a.cross[kind] += s.count
		}
		if layer != runtimeBG && !known[layer] {
			a.unknown += s.count
			continue
		}
		a.byLayer[layer] += s.count
	}
	return a
}

func (a attribution) pct(n int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(n) / float64(a.total) * 100
}

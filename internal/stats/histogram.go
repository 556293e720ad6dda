// Package stats holds the testbed's measurement containers — currently
// the log-bucketed latency Histogram: bounded relative error, fixed
// memory, mergeable across shards, with p50/p99/p999 summaries. It is
// a leaf package (stdlib only) so every layer can record into it.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram bucket geometry: values below 2*histSubCount map to their
// own bucket (exact); larger values split each power-of-two range into
// histSubCount linear sub-buckets, so the relative quantization error
// is bounded by 2^-histSubBits (~3%) regardless of magnitude. The
// layout is HdrHistogram's, sized for non-negative int64 nanoseconds.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// histBuckets covers every value up to 2^63-1: the top power-of-two
	// range has exponent 62-histSubBits, plus the two direct ranges.
	histBuckets = (62-histSubBits)*histSubCount + 2*histSubCount
)

// histBucket maps a non-negative value to its bucket index.
func histBucket(v int64) int {
	u := uint64(v)
	if u < 2*histSubCount {
		return int(u)
	}
	exp := bits.Len64(u) - histSubBits - 1
	return exp<<histSubBits + int(u>>uint(exp))
}

// histLower returns the smallest value a bucket holds (the inverse of
// histBucket at the bucket's left edge).
func histLower(i int) int64 {
	if i < 2*histSubCount {
		return int64(i)
	}
	exp := i>>histSubBits - 1
	mant := i&(histSubCount-1) | histSubCount
	return int64(mant) << uint(exp)
}

// histUpper returns the largest value a bucket holds.
func histUpper(i int) int64 {
	if i+1 >= histBuckets {
		return math.MaxInt64
	}
	return histLower(i+1) - 1
}

// Histogram is a log-bucketed latency histogram: constant-space,
// allocation-free recording, bounded relative error (~3%), and
// mergeable across shards. The zero value is ready to use. It is
// ns-oriented like the rest of this package but unit-free.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	min    int64 // valid when n > 0
	max    int64
}

// Record adds one sample. Negative samples clamp to zero (a latency
// histogram has no use for them, and clock skew cannot happen under
// virtual time anyway).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-th quantile (0..1) as the midpoint of the
// bucket holding the sample of that rank, clamped to the observed
// [min, max]. The estimate's relative error is bounded by the bucket
// geometry (~3%).
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i := range h.counts {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			mid := histLower(i) + (histUpper(i)-histLower(i))/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// Merge folds other into h (other is left unchanged). Merging is
// commutative and associative, so per-shard histograms can be combined
// in any order without changing any quantile.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || h == other {
		return
	}
	if other.n == 0 {
		return
	}
	for i, c := range &other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.n == 0 || other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
}

// fmtNS renders a nanosecond quantity with a human unit.
func fmtNS(ns int64) string {
	switch {
	case ns < 1_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	}
}

// String renders the histogram's tail summary in one line (ns-valued
// samples assumed).
func (h *Histogram) String() string {
	if h.Count() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%s p99=%s p999=%s max=%s",
		h.Count(), fmtNS(h.Quantile(0.50)), fmtNS(h.Quantile(0.99)),
		fmtNS(h.Quantile(0.999)), fmtNS(h.Max()))
}

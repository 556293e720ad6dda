package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistBucketBoundaries walks the bucket geometry: indices are
// monotone in the value, contiguous (no value falls between buckets),
// exact below 2*histSubCount, and bounded in relative width above it.
func TestHistBucketBoundaries(t *testing.T) {
	// Every bucket's [lower, upper] range must map back to that bucket,
	// and bucket i+1 must start exactly one past bucket i's end.
	for i := 0; i < histBuckets; i++ {
		lo, hi := histLower(i), histUpper(i)
		if histBucket(lo) != i {
			t.Fatalf("bucket %d: lower %d maps to %d", i, lo, histBucket(lo))
		}
		if hi != math.MaxInt64 && histBucket(hi) != i {
			t.Fatalf("bucket %d: upper %d maps to %d", i, hi, histBucket(hi))
		}
		if i+1 < histBuckets && histLower(i+1) != hi+1 {
			t.Fatalf("gap after bucket %d: upper %d, next lower %d", i, hi, histLower(i+1))
		}
	}
	// Exact region: one value per bucket.
	for v := int64(0); v < 2*histSubCount; v++ {
		if histBucket(v) != int(v) {
			t.Fatalf("small value %d in bucket %d", v, histBucket(v))
		}
	}
	// Log region: bucket width stays within 2^-histSubBits of the value.
	for _, v := range []int64{64, 100, 1000, 12345, 1 << 20, 5e9, math.MaxInt64 - 1} {
		i := histBucket(v)
		lo, hi := histLower(i), histUpper(i)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket [%d,%d]", v, lo, hi)
		}
		if hi == math.MaxInt64 {
			continue
		}
		if width := hi - lo + 1; float64(width) > float64(lo)/float64(histSubCount)+1 {
			t.Fatalf("bucket %d too wide: [%d,%d] width %d", i, lo, hi, width)
		}
	}
	// Monotone across the exact/log seam.
	prev := -1
	for v := int64(0); v < 8*histSubCount; v++ {
		if b := histBucket(v); b < prev {
			t.Fatalf("bucket index decreased at value %d", v)
		} else {
			prev = b
		}
	}
}

// quantileExact is the reference: the ceil-rank order statistic.
func quantileExact(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHistogramQuantileAccuracy feeds known distributions and checks
// the histogram's p50/p99/p999 against the exact order statistics,
// within the bucket geometry's relative-error bound.
func TestHistogramQuantileAccuracy(t *testing.T) {
	distributions := map[string]func(i int, rng *rand.Rand) int64{
		"uniform":     func(i int, rng *rand.Rand) int64 { return rng.Int63n(1_000_000) },
		"exponential": func(i int, rng *rand.Rand) int64 { return int64(rng.ExpFloat64() * 50_000) },
		"bimodal": func(i int, rng *rand.Rand) int64 {
			if i%10 == 0 {
				return 2_000_000 + rng.Int63n(100_000)
			}
			return 10_000 + rng.Int63n(1_000)
		},
		"ramp": func(i int, rng *rand.Rand) int64 { return int64(i) },
	}
	for name, gen := range distributions {
		rng := rand.New(rand.NewSource(42))
		h := &Histogram{}
		const n = 20_000
		samples := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			v := gen(i, rng)
			samples = append(samples, v)
			h.Record(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		if h.Count() != n {
			t.Fatalf("%s: count %d, want %d", name, h.Count(), n)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			got := h.Quantile(q)
			want := quantileExact(samples, q)
			// The estimate sits inside the bucket holding the exact
			// order statistic, so it can be off by at most one bucket
			// width: 2^-histSubBits relative, +1 for integer rounding.
			tol := float64(want)/float64(histSubCount) + 1
			if math.Abs(float64(got-want)) > tol {
				t.Errorf("%s p%g: got %d, exact %d (tol %.0f)", name, q*100, got, want, tol)
			}
		}
		if h.min != samples[0] || h.Max() != samples[n-1] {
			t.Errorf("%s: min/max %d/%d, want %d/%d", name, h.min, h.Max(), samples[0], samples[n-1])
		}
	}
}

// TestHistogramMergeAssociativity splits one sample stream over three
// "shards" and checks that every merge order yields a histogram
// indistinguishable from recording the whole stream into one — the
// property that makes per-shard histograms safe to aggregate.
func TestHistogramMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shards := []*Histogram{{}, {}, {}}
	whole := &Histogram{}
	for i := 0; i < 30_000; i++ {
		v := rng.Int63n(10_000_000)
		shards[i%3].Record(v)
		whole.Record(v)
	}

	// (a ⊕ b) ⊕ c
	left := &Histogram{}
	left.Merge(shards[0])
	left.Merge(shards[1])
	left.Merge(shards[2])
	// a ⊕ (b ⊕ c)
	bc := &Histogram{}
	bc.Merge(shards[1])
	bc.Merge(shards[2])
	right := &Histogram{}
	right.Merge(shards[0])
	right.Merge(bc)

	for _, m := range []*Histogram{left, right} {
		if m.Count() != whole.Count() {
			t.Fatalf("merged count %d, want %d", m.Count(), whole.Count())
		}
		if m.counts != whole.counts {
			t.Fatalf("merged bucket counts differ from whole-stream recording")
		}
		if m.min != whole.min || m.Max() != whole.Max() {
			t.Fatalf("merged min/max differ from whole-stream recording")
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			if m.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("p%g: merged %d, whole %d", q*100, m.Quantile(q), whole.Quantile(q))
			}
		}
	}
	if left.counts != right.counts {
		t.Fatalf("merge is not associative")
	}

	// Merging an empty or nil histogram is a no-op.
	before := left.Count()
	left.Merge(&Histogram{})
	left.Merge(nil)
	if left.Count() != before {
		t.Fatalf("empty/nil merge changed the count")
	}
}

// TestHistogramEmptyAndClamp pins the zero-value and negative-sample
// behavior the datapath hooks rely on.
func TestHistogramEmptyAndClamp(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram must read as zeros")
	}
	if h.String() != "n=0" {
		t.Fatalf("empty String() = %q", h.String())
	}
	h.Record(-5)
	if h.Count() != 1 || h.min != 0 || h.Max() != 0 {
		t.Fatalf("negative sample must clamp to 0: %v", h)
	}
}

//go:build !race

package testbed

import "testing"

// TestGatedWriteRefusedZeroAllocs pins the gated poll of a full socket
// (BenchmarkGatedWriteRefused) at 0 allocs/op: the caller's descriptor
// view is looked up on every crossing, and a lookup that allocated would
// cost every Scenario 2 loop iteration a heap allocation.
//
// Skipped under the race detector, whose instrumentation allocates.
func TestGatedWriteRefusedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	res := testing.Benchmark(BenchmarkGatedWriteRefused)
	if res.N == 0 {
		t.Fatal("the benchmark failed before timing a write")
	}
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("a refused gated write allocates %d allocs/op, want 0", a)
	}
}

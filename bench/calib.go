package main

import (
	"math"
	"sync"
	"time"
)

// Calibration. The sandbox this benchmark runs on changes speed under
// the program: whole 15 s runs of one commit come out 1.3-1.7 times
// slower than their neighbours, a register-only loop drifting with them,
// and no estimator over a run's passes can see past a slow period longer
// than the run. So before every cell the harness times four small fixed
// kernels that share nothing with the repository's code, and a run's
// host times are divided by how much slower than their reference times
// the kernels ran during that run. The kernels stand for what the
// simulator spends its time on: arithmetic, dependent loads over a
// working set larger than L2, bulk copies, and locked map updates.

// kernel is one calibration kernel and its reference time: what one
// slice typically takes on this sandbox. Only the ratio between runs
// matters; the references just keep the normalised times close to the
// seconds a typical run measures.
type kernel struct {
	run   func()
	refNS float64
}

var calibSink uint64

var chaseTable = func() []uint32 {
	t := make([]uint32, 1<<20)
	x := uint32(1)
	for i := range t {
		x = x*1664525 + 1013904223
		t[i] = x & (1<<20 - 1)
	}
	return t
}()

var (
	moveSrc, moveDst = make([]byte, 1<<20), make([]byte, 1<<20)
	lockedMu         sync.Mutex
	lockedMap        = map[uint64]uint64{}
)

var kernels = [...]kernel{
	{refNS: 10e6, run: func() { // arithmetic: a xorshift chain in registers
		x := uint64(88172645463325252)
		for i := 0; i < 5_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
	}},
	{refNS: 18e6, run: func() { // dependent loads over 4 MiB
		idx := uint32(0)
		for i := 0; i < 300_000; i++ {
			idx = (chaseTable[idx] ^ uint32(i)) & (1<<20 - 1)
		}
		calibSink += uint64(idx)
	}},
	{refNS: 10e6, run: func() { // bulk copies
		for i := 0; i < 400; i++ {
			copy(moveDst, moveSrc)
		}
	}},
	{refNS: 13.5e6, run: func() { // locked map updates
		for i := 0; i < 300_000; i++ {
			lockedMu.Lock()
			lockedMap[uint64(i)*0x9e3779b97f4a7c15>>48]++
			lockedMu.Unlock()
		}
	}},
}

// calibSlice times every kernel once.
func calibSlice() (ns [len(kernels)]float64) {
	for i, k := range kernels {
		t0 := time.Now()
		k.run()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return ns
}

// slowdown is how much slower than reference the kernels ran over a set
// of slices: per kernel the median slice over its reference, and the
// geometric mean over kernels.
func slowdown(slices [][len(kernels)]float64) float64 {
	logSum := 0.0
	for k := range kernels {
		ts := make([]float64, len(slices))
		for i, s := range slices {
			ts[i] = s[k]
		}
		_, med, _ := quartiles(ts)
		logSum += math.Log(med / kernels[k].refNS)
	}
	return math.Exp(logSum / float64(len(kernels)))
}

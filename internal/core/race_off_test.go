//go:build !race

package core

// raceEnabled reports whether the race detector is active (see
// race_on_test.go). The byte-exact golden runs skip under it: they drive
// single-goroutine lockstep virtual time, so the detector can find
// nothing there, and their ~10x slowdown pushes the package past the
// test timeout.
const raceEnabled = false

//go:build !race

package fstack

// raceEnabled reports whether the race detector is active (see
// race_on_test.go): an allocation count under it counts the detector's
// own instrumentation.
const raceEnabled = false

//go:build race

package fstack

// raceEnabled reports whether the race detector is active.
const raceEnabled = true

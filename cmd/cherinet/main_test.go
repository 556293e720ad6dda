package main

import (
	"os"
	"testing"

	"repro/internal/core"
)

// TestListGolden pins `cherinet list` byte for byte.
func TestListGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := core.FormatScenarioList(); got != string(want) {
		t.Fatalf("cherinet list drifted:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

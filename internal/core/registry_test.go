package core

import (
	"strings"
	"testing"
)

func TestRegistryLookupAndList(t *testing.T) {
	for _, name := range []string{"table2", "scenario4", "scenario6", "fig3"} {
		e, ok := LookupScenario(name)
		if !ok || e.Name != name || e.Desc == "" || e.Bind == nil {
			t.Fatalf("registry entry %q broken: %+v ok=%v", name, e, ok)
		}
	}
	if _, ok := LookupScenario("nope"); ok {
		t.Fatal("unknown name resolved")
	}
	list := FormatScenarioList()
	for _, e := range Registry {
		if !strings.Contains(list, e.Name) || !strings.Contains(list, e.Desc) {
			t.Fatalf("list missing %q:\n%s", e.Name, list)
		}
	}
}

func TestRegistrySuggestNearMisses(t *testing.T) {
	sugg := SuggestScenarios("scenaro5")
	if len(sugg) == 0 || sugg[0] != "scenario5" {
		t.Fatalf("scenaro5 suggestions: %v", sugg)
	}
	// A prefix matches everything it prefixes.
	sugg = SuggestScenarios("fig")
	if len(sugg) < 4 {
		t.Fatalf("fig suggestions: %v", sugg)
	}
	if got := SuggestScenarios("zzzzzz"); len(got) != 0 {
		t.Fatalf("nonsense matched: %v", got)
	}
}

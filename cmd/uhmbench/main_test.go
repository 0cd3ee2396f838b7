package main

import (
	"context"
	"slices"
	"testing"

	"uhm/internal/core"
	"uhm/internal/workload"
)

func TestParseExperiments(t *testing.T) {
	all, err := parseExperiments("all")
	if err != nil {
		t.Fatalf("parseExperiments(all): %v", err)
	}
	if !slices.Equal(all, core.Experiments()) {
		t.Errorf("parseExperiments(all) = %v, want %v", all, core.Experiments())
	}

	got, err := parseExperiments("table2, figure1 ,empirical")
	if err != nil {
		t.Fatalf("parseExperiments(list): %v", err)
	}
	if want := []string{"table2", "figure1", "empirical"}; !slices.Equal(got, want) {
		t.Errorf("parseExperiments(list) = %v, want %v", got, want)
	}

	for _, bad := range []string{"", ",", "table9", "table2,bogus"} {
		if _, err := parseExperiments(bad); err == nil {
			t.Errorf("parseExperiments(%q) succeeded, want error", bad)
		}
	}
}

func TestKnownExperimentsDistinctAndParsable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range core.Experiments() {
		if seen[e] {
			t.Errorf("experiment %q listed twice", e)
		}
		seen[e] = true
		got, err := parseExperiments(e)
		if err != nil {
			t.Errorf("parseExperiments(%q): %v", e, err)
		}
		if !slices.Equal(got, []string{e}) {
			t.Errorf("parseExperiments(%q) = %v", e, got)
		}
	}
}

func TestParseArchetypes(t *testing.T) {
	if got, err := parseArchetypes(""); err != nil || got != nil {
		t.Errorf("parseArchetypes(\"\") = %v, %v; want nil, nil", got, err)
	}
	all, err := parseArchetypes("all")
	if err != nil {
		t.Fatalf("parseArchetypes(all): %v", err)
	}
	if !slices.Equal(all, workload.ArchetypeNames()) {
		t.Errorf("parseArchetypes(all) = %v, want the catalogue %v", all, workload.ArchetypeNames())
	}
	got, err := parseArchetypes("kernel, dispatch")
	if err != nil {
		t.Fatalf("parseArchetypes(list): %v", err)
	}
	if want := []string{"kernel", "dispatch"}; !slices.Equal(got, want) {
		t.Errorf("parseArchetypes(list) = %v, want %v", got, want)
	}
	for _, bad := range []string{",", "bogus", "kernel,bogus"} {
		if _, err := parseArchetypes(bad); err == nil {
			t.Errorf("parseArchetypes(%q) succeeded, want error", bad)
		}
	}
}

// TestRunChaosSinglePlan drives the -chaos mode end to end on one seeded
// plan: it must complete without violations (the chaos invariants are pinned
// exhaustively by the service package's TestChaosSmoke; this covers the CLI
// wiring and its error contract).
func TestRunChaosSinglePlan(t *testing.T) {
	if err := runChaos(context.Background(), 1, 1); err != nil {
		t.Fatalf("runChaos: %v", err)
	}
}

package main

import (
	"bytes"
	"context"
	"os"
	"slices"
	"strings"
	"testing"

	"uhm/internal/core"
	"uhm/internal/service"
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

// TestExperimentsGolden pins `uhmbench -exp all` byte for byte on the
// parallel and serial engines and in crosscheck mode, which must all print
// the same report.  After a deliberate change to the experiments, regenerate
// the file with
//
//	go run ./cmd/uhmbench -exp all > cmd/uhmbench/testdata/exp_all.golden
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exp_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		workers int
		mode    core.RunMode
	}{
		{"parallel", 0, core.ModeDerived},
		{"serial", 1, core.ModeDerived},
		{"crosscheck", 0, core.ModeCrossCheck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := service.New(service.Options{Workers: tc.workers}).Engine()
			engine.Mode = tc.mode
			var out bytes.Buffer
			opts := core.ExperimentOptions{Seed: 1} // the -seed default
			if err := run(context.Background(), &out, engine, "all", opts, "", core.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
			for i := range min(len(got), len(wantLines)) {
				if got[i] != wantLines[i] {
					t.Fatalf("line %d:\n got  %q\n want %q", i+1, got[i], wantLines[i])
				}
			}
			if len(got) != len(wantLines) {
				t.Fatalf("%d lines, want %d", len(got), len(wantLines))
			}
		})
	}
}

package main

import (
	"strings"
	"testing"

	"uhm/internal/core"
	"uhm/internal/service"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]core.Level{
		"stack": core.LevelStack,
		"mem2":  core.LevelMem2,
		"mem3":  core.LevelMem3,
	}
	for name, want := range cases {
		got, err := parseLevel(name)
		if err != nil {
			t.Fatalf("parseLevel(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("parseLevel(%q) = %v, want %v", name, got, want)
		}
	}
	for _, bad := range []string{"", "Stack", "mem4", "stack "} {
		if _, err := parseLevel(bad); err == nil {
			t.Errorf("parseLevel(%q) succeeded, want error", bad)
		}
	}
}

func TestParseDegree(t *testing.T) {
	cases := map[string]core.Degree{
		"packed":  core.DegreePacked,
		"contour": core.DegreeContour,
		"huffman": core.DegreeHuffman,
		"pair":    core.DegreePair,
	}
	for name, want := range cases {
		got, err := parseDegree(name)
		if err != nil {
			t.Fatalf("parseDegree(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("parseDegree(%q) = %v, want %v", name, got, want)
		}
	}
	for _, bad := range []string{"", "Huffman", "huff"} {
		if _, err := parseDegree(bad); err == nil {
			t.Errorf("parseDegree(%q) succeeded, want error", bad)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]core.Strategy{
		"conventional": core.Conventional,
		"dtb":          core.WithDTB,
		"cache":        core.WithCache,
		"expanded":     core.Expanded,
		"compiled":     core.Compiled,
	}
	for name, want := range cases {
		got, err := parseStrategy(name)
		if err != nil {
			t.Fatalf("parseStrategy(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("parseStrategy(%q) = %v, want %v", name, got, want)
		}
	}
	for _, bad := range []string{"", "DTB", "icache"} {
		if _, err := parseStrategy(bad); err == nil {
			t.Errorf("parseStrategy(%q) succeeded, want error", bad)
		}
	}
}

// buildArtifact resolves the flags' request the way a run does: through the
// service's content-addressed registry.
func buildArtifact(svc *service.Service, workloadName, file, archetype string, genSeed int64, level core.Level) (*core.Artifact, error) {
	req, err := buildRequest(workloadName, file, archetype, genSeed, level)
	if err != nil {
		return nil, err
	}
	return svc.Resolve(req)
}

func TestBuildArtifactValidation(t *testing.T) {
	svc := service.New(service.Options{})
	if _, err := buildArtifact(svc, "fib", "prog.ml", "", 1, core.LevelStack); err == nil {
		t.Error("buildArtifact with both -workload and -file succeeded, want error")
	}
	if _, err := buildArtifact(svc, "fib", "", "dispatch", 1, core.LevelStack); err == nil {
		t.Error("buildArtifact with both -workload and -archetype succeeded, want error")
	}
	if _, err := buildArtifact(svc, "", "", "", 1, core.LevelStack); err == nil {
		t.Error("buildArtifact with no source selector succeeded, want error")
	}
	art, err := buildArtifact(svc, "fib", "", "", 1, core.LevelMem2)
	if err != nil {
		t.Fatalf("buildArtifact(fib): %v", err)
	}
	if art.Name != "fib" || art.Level != core.LevelMem2 {
		t.Errorf("buildArtifact(fib) = %q level %v", art.Name, art.Level)
	}
	// The registry path is live: the build landed in the artifact cache.
	if st := svc.Registry().Stats(); st.Builds != 1 {
		t.Errorf("Builds = %d, want 1 (artifact built through the registry)", st.Builds)
	}
}

func TestBuildArtifactArchetype(t *testing.T) {
	svc := service.New(service.Options{})
	art, err := buildArtifact(svc, "", "", "dispatch", 7, core.LevelStack)
	if err != nil {
		t.Fatalf("buildArtifact(dispatch, 7): %v", err)
	}
	if art.Name != "dispatch7" || art.Level != core.LevelStack {
		t.Errorf("buildArtifact(dispatch, 7) = %q level %v", art.Name, art.Level)
	}
	// The same archetype+seed resolves to the same content-addressed artifact:
	// the second build must be a registry hit, not a rebuild.
	if _, err := buildArtifact(svc, "", "", "dispatch", 7, core.LevelStack); err != nil {
		t.Fatal(err)
	}
	if st := svc.Registry().Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Errorf("registry builds=%d hits=%d, want 1/1", st.Builds, st.Hits)
	}
	if _, err := buildArtifact(svc, "", "", "no-such-archetype", 1, core.LevelStack); err == nil {
		t.Error("buildArtifact with unknown archetype succeeded, want error")
	}
}

func TestCompareOutputs(t *testing.T) {
	mk := func(s core.Strategy, out ...int64) *core.Report {
		return &core.Report{Strategy: s, Output: out}
	}
	same := []*core.Report{
		mk(core.Conventional, 1, 2, 3),
		mk(core.WithDTB, 1, 2, 3),
		mk(core.WithCache, 1, 2, 3),
		mk(core.Expanded, 1, 2, 3),
	}
	if err := compareOutputs(same); err != nil {
		t.Errorf("compareOutputs on identical outputs: %v", err)
	}
	diverged := []*core.Report{
		mk(core.Conventional, 1, 2, 3),
		mk(core.WithDTB, 1, 9, 3),
	}
	if err := compareOutputs(diverged); err == nil {
		t.Error("compareOutputs on diverged outputs succeeded, want error")
	}
	shorter := []*core.Report{
		mk(core.Conventional, 1, 2, 3),
		mk(core.Expanded, 1, 2),
	}
	if err := compareOutputs(shorter); err == nil {
		t.Error("compareOutputs on different-length outputs succeeded, want error")
	}
}

func TestOutputDiff(t *testing.T) {
	diffs := outputDiff([]int64{1, 2, 3}, []int64{1, 9, 3, 4})
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"value 1: 2 vs 9", "value 3: <missing> vs 4", "lengths differ: 3 vs 4"} {
		if !strings.Contains(joined, want) {
			t.Errorf("outputDiff missing %q in:\n%s", want, joined)
		}
	}
	if diffs := outputDiff([]int64{5}, []int64{5}); len(diffs) != 0 {
		t.Errorf("outputDiff on equal outputs = %v, want none", diffs)
	}
}

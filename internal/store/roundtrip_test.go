package store

import (
	"crypto/sha256"
	"slices"
	"testing"

	"uhm/internal/core"
	"uhm/internal/faultinject"
	"uhm/internal/sim"
)

// TestRehydratedRunsMatchFresh is the PR's acceptance pin: an artifact that
// went through the full persistence cycle — snapshot, encode, write, read,
// verify-by-hash, decode, rehydrate — must be indistinguishable from a
// freshly built one at every level, under every strategy, at every encoding
// degree: byte-identical output and a field-for-field identical cost report
// (sim.DiffReports).  The rehydrated run derives from the persisted trace
// while the fresh run records its own, so this also pins that a loaded trace
// answers exactly like a recorded one.  The rehydrated runs execute with
// every trace recording failing, so each report must come from the persisted
// trace: a degree that recorded its own would fall back to full replay and
// report Derived false.
func TestRehydratedRunsMatchFresh(t *testing.T) {
	key := sha256.Sum256([]byte(testSrc))
	for _, level := range core.Levels() {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			st := openTestStore(t)
			enriched := enrichedArtifact(t, level)
			if err := st.Put(enriched.Snapshot(), testSrc); err != nil {
				t.Fatal(err)
			}
			img, err := st.Get(key, level)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := img.Artifact()
			if err != nil {
				t.Fatal(err)
			}
			// Fresh reference, built from source with no persisted state.
			fresh, err := core.BuildSource("persist", testSrc, level)
			if err != nil {
				t.Fatal(err)
			}
			for _, degree := range core.Degrees() {
				cfg := core.DefaultConfig()
				cfg.Degree = degree
				for _, strategy := range core.Strategies() {
					want, err := core.Run(fresh, strategy, cfg)
					if err != nil {
						t.Fatalf("%v/%v fresh: %v", degree, strategy, err)
					}
					restore := faultinject.Activate(faultinject.NewPlan(1,
						faultinject.Rule{Site: faultinject.SiteTraceRecord, Probability: 1}))
					got, err := core.Run(loaded, strategy, cfg)
					restore()
					if err != nil {
						t.Fatalf("%v/%v rehydrated: %v", degree, strategy, err)
					}
					if !got.Derived {
						t.Fatalf("%v/%v: rehydrated report was not derived from the persisted trace", degree, strategy)
					}
					if !slices.Equal(got.Output, want.Output) {
						t.Fatalf("%v/%v: output %v, want %v", degree, strategy, got.Output, want.Output)
					}
					if diff := sim.DiffReports(got, want); diff != "" {
						t.Fatalf("%v/%v: rehydrated report diverges: %s", degree, strategy, diff)
					}
				}
			}
		})
	}
}

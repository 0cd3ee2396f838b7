package core

import (
	"sync"
	"testing"

	"uhm/internal/sim"
)

// TestArtifactPredecodedConcurrentStress pins the one-build-per-degree
// guarantee the service registry relies on: any number of goroutines hitting
// one artifact across mixed degrees must all receive the same shared
// PredecodedProgram instance per degree — the build happened exactly once —
// every degree must share the artifact's one binding, and the instances must
// be immediately usable.  Run under -race (CI does), this also pins that the
// lazy build publishes safely.
func TestArtifactPredecodedConcurrentStress(t *testing.T) {
	art, err := BuildWorkload("sieve", LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	degrees := Degrees()
	const perDegree = 16
	results := make([][]any, len(degrees)) // [degree][goroutine] -> *sim.PredecodedProgram
	for i := range results {
		results[i] = make([]any, perDegree)
	}

	var start, done sync.WaitGroup
	start.Add(1)
	for di, degree := range degrees {
		for g := 0; g < perDegree; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				pp, err := art.Predecoded(degree)
				if err != nil {
					t.Errorf("degree %v: %v", degree, err)
					return
				}
				// Touch the shared structure the way a simulator and the
				// registry would, so the race detector sees cross-goroutine
				// reads of the freshly published build and of the binding
				// every degree records its one trace on.
				if pp.NumInstrs() == 0 || pp.Sequence(0).Words() == 0 {
					t.Errorf("degree %v: empty predecoded program", degree)
					return
				}
				if tr, err := pp.Trace(); err != nil || tr == nil {
					t.Errorf("degree %v: trace %v, %v", degree, tr, err)
					return
				}
				_ = art.FootprintBytes()
				results[di][g] = pp
			}()
		}
	}
	start.Done()
	done.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// One instance per degree, distinct instances across degrees.
	byDegree := make(map[any]bool)
	for di, degree := range degrees {
		first := results[di][0]
		for g, got := range results[di] {
			if got != first {
				t.Fatalf("degree %v: goroutine %d got a different instance — predecode ran more than once", degree, g)
			}
		}
		if byDegree[first] {
			t.Fatalf("degree %v shares an instance with another degree", degree)
		}
		byDegree[first] = true
		if b := first.(*sim.PredecodedProgram).Binding; b != art.Binding {
			t.Fatalf("degree %v is predecoded on a binding other than the artifact's", degree)
		}
	}

	// The footprint/invalidation view agrees: exactly one cached program per
	// degree, and re-requesting returns the cached instances.
	if got := len(art.CachedPredecoded()); got != len(degrees) {
		t.Fatalf("CachedPredecoded returned %d programs, want %d", got, len(degrees))
	}
	for di, degree := range degrees {
		pp, err := art.Predecoded(degree)
		if err != nil {
			t.Fatal(err)
		}
		if pp != results[di][0] {
			t.Fatalf("degree %v: re-request built a new instance", degree)
		}
	}
}

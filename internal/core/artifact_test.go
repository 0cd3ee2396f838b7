package core

import (
	"testing"

	"uhm/internal/dir"
	"uhm/internal/faultinject"
	"uhm/internal/sim"
)

// TestDegreesShareOneRecording pins that an artifact records its trace once,
// whatever degrees run it: with trace/record failing on every visit after the
// first, sieve under the DTB must still derive at every degree — each
// report equal to the fully simulated one — and every degree must hold the
// same trace and the same compiled program.
func TestDegreesShareOneRecording(t *testing.T) {
	restore := faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Rule{Site: faultinject.SiteTraceRecord, After: 1}))
	defer restore()

	art, err := BuildWorkload("sieve", LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	var pps []*sim.PredecodedProgram
	for _, degree := range []Degree{DegreeHuffman, DegreePair, DegreePacked, DegreeContour} {
		cfg := DefaultConfig()
		cfg.Degree = degree
		got, err := Run(art, WithDTB, cfg)
		if err != nil {
			t.Fatalf("%v: %v", degree, err)
		}
		if !got.Derived {
			t.Errorf("%v: report was replayed, not derived from the shared trace", degree)
		}
		want, err := RunSimulated(art, WithDTB, cfg)
		if err != nil {
			t.Fatalf("%v: %v", degree, err)
		}
		if diff := sim.DiffReports(got, want); diff != "" {
			t.Errorf("%v: derived report differs from simulation: %s", degree, diff)
		}
		pp, err := art.Predecoded(degree)
		if err != nil {
			t.Fatal(err)
		}
		pps = append(pps, pp)
	}
	first := pps[0]
	comp, err := first.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if first.CachedTrace() == nil {
		t.Fatal("no trace cached after derived runs")
	}
	for _, pp := range pps[1:] {
		if pp.CachedTrace() != first.CachedTrace() {
			t.Errorf("%v holds a different trace than %v", pp.Degree(), first.Degree())
		}
		if c, err := pp.Compiled(); err != nil || c != comp {
			t.Errorf("%v holds a different compiled program than %v (%v)", pp.Degree(), first.Degree(), err)
		}
	}
}

// TestFootprintChargesBindingOnce pins the byte accounting the registry's
// budget is set in: a degree's own footprint does not grow when the trace and
// closures are built, and using a second degree grows the artifact's
// footprint by exactly that degree's own bytes — the shared trace and
// closures are charged once.
func TestFootprintChargesBindingOnce(t *testing.T) {
	art, err := BuildWorkload("sieve", LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Degree = DegreeHuffman
	ppA, err := art.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	ownA, unbuilt := ppA.FootprintBytes(), art.FootprintBytes()
	if _, err := Run(art, WithDTB, cfg); err != nil {
		t.Fatal(err)
	}
	one := art.FootprintBytes()
	if ppA.FootprintBytes() != ownA {
		t.Errorf("recording the trace grew the degree's own footprint from %d to %d bytes", ownA, ppA.FootprintBytes())
	}
	if one <= unbuilt {
		t.Errorf("recording the trace did not grow the artifact's footprint (%d -> %d bytes)", unbuilt, one)
	}

	cfg.Degree = DegreePair
	if _, err := Run(art, WithDTB, cfg); err != nil {
		t.Fatal(err)
	}
	ppB, err := art.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	if grew := art.FootprintBytes() - one; grew != ppB.FootprintBytes() {
		t.Errorf("a second degree grew the footprint by %d bytes, want its own %d", grew, ppB.FootprintBytes())
	}
}

// TestPredecodedRejectsInvalidDegree checks the guard on the per-degree
// array's index.
func TestPredecodedRejectsInvalidDegree(t *testing.T) {
	art, err := BuildWorkload("fib", LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	for _, degree := range []Degree{-1, dir.NumDegrees} {
		if pp, err := art.Predecoded(degree); err == nil {
			t.Errorf("degree %d: got %v, want an error", int(degree), pp)
		}
	}
}

package sim

import (
	"errors"
	"strings"
	"testing"

	"uhm/internal/compile"
	"uhm/internal/dir"
	"uhm/internal/faultinject"
	"uhm/internal/memory"
	"uhm/internal/workload"
)

// TestDeriveMatchesReplay is the tentpole's exactness claim: for every
// workload, encoding degree and strategy, the report derived from the shared
// execution trace equals the fully simulated report in every field except the
// Derived marker.
func TestDeriveMatchesReplay(t *testing.T) {
	for _, wl := range []string{"loopsum", "fib", "sieve", "callheavy"} {
		p := workload.MustCompileAt(wl, compile.LevelStack)
		for _, degree := range dir.Degrees() {
			cfg := DefaultConfig()
			cfg.Degree = degree
			pp, err := Predecode(p, degree)
			if err != nil {
				t.Fatalf("%s/%v: %v", wl, degree, err)
			}
			for _, strategy := range Strategies() {
				rep, err := NewReplayer(pp, strategy, cfg)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", wl, degree, strategy, err)
				}
				simulated, err := rep.Replay()
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", wl, degree, strategy, err)
				}
				want := simulated.Clone()
				derived, err := rep.Derive()
				if err != nil {
					t.Fatalf("%s/%v/%v: Derive: %v", wl, degree, strategy, err)
				}
				if !derived.Derived {
					t.Errorf("%s/%v/%v: derived report not marked Derived", wl, degree, strategy)
				}
				if diff := DiffReports(derived, want); diff != "" {
					t.Errorf("%s/%v/%v: derived report diverges from simulation: %s",
						wl, degree, strategy, diff)
				}
			}
		}
	}
}

// TestDeriveHoldsReport: a Replayer that has derived answers the next Derive
// from the report it holds, allocating nothing, and that report is the one a
// fresh Replayer streams.
func TestDeriveHoldsReport(t *testing.T) {
	p := workload.MustCompileAt("fib", compile.LevelStack)
	cfg := DefaultConfig()
	pp, err := Predecode(p, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range Strategies() {
		fresh, err := NewReplayer(pp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Derive()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewReplayer(pp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Derive(); err != nil {
			t.Fatal(err)
		}
		if !rep.derived {
			t.Fatalf("%v: a successful Derive left no held report", strategy)
		}
		var second *Report
		allocs := testing.AllocsPerRun(20, func() {
			if second, err = rep.Derive(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: a held Derive allocates %.1f objects, want 0", strategy, allocs)
		}
		if !second.Derived {
			t.Errorf("%v: held report not marked Derived", strategy)
		}
		if diff := DiffReports(second, want); diff != "" {
			t.Errorf("%v: held report diverges from a fresh derivation: %s", strategy, diff)
		}
	}
}

// TestDeriveAfterReplayStreamsAgain: Replay overwrites the held report, so the
// Derive after it streams the trace again and gives the same derived report.
func TestDeriveAfterReplayStreamsAgain(t *testing.T) {
	p := workload.MustCompileAt("fib", compile.LevelStack)
	cfg := DefaultConfig()
	pp, err := Predecode(p, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range Strategies() {
		rep, err := NewReplayer(pp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first, err := rep.Derive()
		if err != nil {
			t.Fatal(err)
		}
		want := first.Clone()
		if _, err := rep.Replay(); err != nil {
			t.Fatal(err)
		}
		again, err := rep.Derive()
		if err != nil {
			t.Fatal(err)
		}
		if !again.Derived {
			t.Errorf("%v: Derive after Replay returned a report not marked Derived", strategy)
		}
		if diff := DiffReports(again, want); diff != "" {
			t.Errorf("%v: Derive after Replay diverges from the first: %s", strategy, diff)
		}
	}
}

// TestDeriveFaultDeclinesHeldReport: the sim/derive fault site fires before
// the held report is consulted, so a chaos plan declines a Replayer that has
// already derived, ReplayDerived falls back to the simulated report, and the
// first Derive after the plan is lifted is derived again.
func TestDeriveFaultDeclinesHeldReport(t *testing.T) {
	p := workload.MustCompileAt("fib", compile.LevelStack)
	cfg := DefaultConfig()
	pp, err := Predecode(p, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	simulated, err := RunPredecoded(pp, WithDTB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(pp, WithDTB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := rep.Derive()
	if err != nil {
		t.Fatal(err)
	}
	want := first.Clone()

	restore := faultinject.Activate(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteDerive, Probability: 1,
	}))
	defer restore()
	if _, err := rep.Derive(); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("Derive of a held report under sim/derive p=1: got %v, want ErrNoTrace", err)
	}
	got, err := rep.ReplayDerived()
	if err != nil {
		t.Fatal(err)
	}
	restore()
	if got.Derived {
		t.Error("ReplayDerived under sim/derive p=1 returned a derived report")
	}
	if diff := DiffReports(got, simulated); diff != "" {
		t.Errorf("fallback report diverges from Replay: %s", diff)
	}

	again, err := rep.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Derived {
		t.Error("Derive after the plan was lifted returned a report not marked Derived")
	}
	if diff := DiffReports(again, want); diff != "" {
		t.Errorf("Derive after the plan was lifted diverges from the first: %s", diff)
	}
}

// TestDeriveDeclinesOutOfBoundsTrace checks the decline rule: a configuration
// whose bounds the recorded trace exceeds must get ErrNoTrace (and
// ReplayDerived must fall back to full simulation, reproducing the live
// error or result exactly).
func TestDeriveDeclinesOutOfBoundsTrace(t *testing.T) {
	p := workload.MustCompileAt("fib", compile.LevelStack)
	cfg := DefaultConfig()
	cfg.MaxInstructions = 10 // far below the real run length
	pp, err := Predecode(p, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(pp, Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Derive(); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("Derive under a 10-instruction limit: got %v, want ErrNoTrace", err)
	}
	// The fallback must reproduce the live limit error.
	if _, err := rep.ReplayDerived(); !errors.Is(err, ErrInstructionLimit) {
		t.Fatalf("ReplayDerived fallback: got %v, want ErrInstructionLimit", err)
	}
}

// TestRunDerivedMatchesRunPredecoded pins the package-level helper to the
// simulated path across strategies.
func TestRunDerivedMatchesRunPredecoded(t *testing.T) {
	p := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := DefaultConfig()
	pp, err := Predecode(p, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range Strategies() {
		want, err := RunPredecoded(pp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunDerived(pp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Derived {
			t.Errorf("%v: RunDerived fell back to simulation unexpectedly", strategy)
		}
		if diff := DiffReports(got, want); diff != "" {
			t.Errorf("%v: %s", strategy, diff)
		}
	}
}

// TestTraceFootprintAccounting checks the size-accounting claim: as the
// compiled form and then the trace are built, the binding's FootprintBytes
// grows by exactly their sizes — so the service registry's eviction budget
// sees the cached trace — while the degree's own footprint does not move.
func TestTraceFootprintAccounting(t *testing.T) {
	p := workload.MustCompileAt("loopsum", compile.LevelStack)
	pp, err := Predecode(p, dir.DegreeHuffman)
	if err != nil {
		t.Fatal(err)
	}
	own, before := pp.FootprintBytes(), pp.Binding.FootprintBytes()
	comp, err := pp.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	afterCompile := pp.Binding.FootprintBytes()
	if got, want := afterCompile-before, comp.FootprintWords()*memory.WordBytes; got != want {
		t.Errorf("footprint grew by %d bytes after compiling, want %d", got, want)
	}
	tr, err := pp.Trace()
	if err != nil {
		t.Fatal(err)
	}
	got := pp.Binding.FootprintBytes() - afterCompile
	if got != tr.SizeBytes() {
		t.Errorf("footprint grew by %d bytes after tracing, want trace SizeBytes %d", got, tr.SizeBytes())
	}
	wantSize := 64 + len(tr.PCs)*4 + len(tr.Output)*8
	if tr.SizeBytes() != wantSize {
		t.Errorf("SizeBytes = %d, want %d (64 + 4·%d PCs + 8·%d outputs)",
			tr.SizeBytes(), wantSize, len(tr.PCs), len(tr.Output))
	}
	// Recording again must not double-charge: Trace is cached.
	if _, err := pp.Trace(); err != nil {
		t.Fatal(err)
	}
	if pp.Binding.FootprintBytes() != afterCompile+tr.SizeBytes() {
		t.Errorf("second Trace() changed the footprint: %d != %d",
			pp.Binding.FootprintBytes(), afterCompile+tr.SizeBytes())
	}
	if pp.FootprintBytes() != own {
		t.Errorf("the degree's own footprint moved from %d to %d bytes", own, pp.FootprintBytes())
	}
}

// TestDeriveDoesNotAllocate pins the derived path to the same steady-state
// discipline as Replay: once the trace is recorded and the Replayer is warm,
// streaming a derivation performs zero heap allocations.  Clearing the held
// report before each call makes every measured Derive stream the trace.
func TestDeriveDoesNotAllocate(t *testing.T) {
	p := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := DefaultConfig()
	pp, err := Predecode(p, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Trace(); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range Strategies() {
		rep, err := NewReplayer(pp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Derive(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			rep.derived = false
			if _, err := rep.Derive(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state Derive allocates %.1f objects per run, want 0", strategy, allocs)
		}
	}
}

// TestUncompilableProgramIsSimulated: traces are recorded only on the
// closure-compiled backend, so a program the compiler refuses has no trace.
// Every interpretive organisation then serves it by full simulation, with the
// same report and Derived false.
func TestUncompilableProgramIsSimulated(t *testing.T) {
	// The trailing PUSHC validates but falls off the end of the program, which
	// the reference interpreter never reaches and dir.Compile refuses.
	p := &dir.Program{
		Name: "tail",
		Instrs: []dir.Instruction{
			{Op: dir.OpPushConst, Operands: []dir.Operand{dir.ImmOperand(7)}},
			{Op: dir.OpPrint},
			{Op: dir.OpHalt},
			{Op: dir.OpPushConst, Operands: []dir.Operand{dir.ImmOperand(1)}},
		},
		Procs:    []dir.Proc{{Name: "main", Entry: 0, FrameSlots: 1}},
		Contours: []dir.Contour{{Parent: 0}},
		Level:    "hand",
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	pp, err := Predecode(p, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	_, compileErr := pp.Compiled()
	if compileErr == nil || !strings.Contains(compileErr.Error(), "falls off the end of the program") {
		t.Fatalf("Compiled error = %v, want the fall-off-the-end refusal", compileErr)
	}
	if tr, err := pp.Trace(); tr != nil || err != compileErr {
		t.Fatalf("Trace() = %v, %v; want no trace and the compile error", tr, err)
	}
	for _, strategy := range []Strategy{Conventional, WithDTB, WithCache, Expanded} {
		r, err := NewReplayer(pp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		simulated, err := r.Replay()
		if err != nil {
			t.Fatalf("%v: Replay: %v", strategy, err)
		}
		want := simulated.Clone()
		got, err := r.ReplayDerived()
		if err != nil {
			t.Fatalf("%v: ReplayDerived: %v", strategy, err)
		}
		if got.Derived {
			t.Errorf("%v: report derived from a trace the compiled backend never recorded", strategy)
		}
		if diff := DiffReports(got, want); diff != "" {
			t.Errorf("%v: %s", strategy, diff)
		}
	}
}

// BenchmarkDeriveReport measures the "cost many" half: streaming the recorded
// trace through each organisation's cost model on a warm Replayer.  Against
// BenchmarkReplaySteadyState this is the per-strategy speedup the trace buys
// — no semantics re-run, just the DTB/cache state machines and the per-pc
// cost tables.  Each iteration clears the held report so that it streams;
// the held sub-benchmark prices what a warm parked Replayer pays instead.
func BenchmarkDeriveReport(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := DefaultConfig()
	cfg.MaxInstructions = 5_000_000
	pp, err := Predecode(dp, cfg.Degree)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pp.Trace(); err != nil { // record outside the timer
		b.Fatal(err)
	}
	bench := func(strategy Strategy, stream bool) func(*testing.B) {
		return func(b *testing.B) {
			rep, err := NewReplayer(pp, strategy, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rep.Derive(); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if stream {
					rep.derived = false
				}
				if _, err := rep.Derive(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, strategy := range Strategies() {
		b.Run(strategy.String(), bench(strategy, true))
	}
	b.Run("held", bench(WithDTB, false))
}

package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"uhm/internal/compile"
	"uhm/internal/dir"
	"uhm/internal/translate"
	"uhm/internal/workload"
)

// TestPredecodeMatchesFreshDecode verifies the premise of the fast path: the
// predecoded sequences equal the full static translation, and the recorded
// costs equal what a fresh decoder measures, for every workload and degree.
func TestPredecodeMatchesFreshDecode(t *testing.T) {
	for _, name := range []string{"loopsum", "fib", "sieve", "callheavy"} {
		dp := workload.MustCompileAt(name, compile.LevelStack)
		want, err := translate.TranslateProgram(dp)
		if err != nil {
			t.Fatal(err)
		}
		for _, degree := range dir.Degrees() {
			pp, err := Predecode(dp, degree)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, degree, err)
			}
			if pp.NumInstrs() != len(dp.Instrs) {
				t.Fatalf("%s/%v: %d predecoded instrs, want %d", name, degree, pp.NumInstrs(), len(dp.Instrs))
			}
			dec := pp.Binary.NewDecoder()
			for pc := 0; pc < pp.NumInstrs(); pc++ {
				if !reflect.DeepEqual(pp.Sequence(pc), want[pc]) {
					t.Errorf("%s/%v pc %d: sequence %v, want %v", name, degree, pc, pp.Sequence(pc), want[pc])
				}
				_, cost, err := dec.Decode(pc)
				if err != nil {
					t.Fatal(err)
				}
				if pp.DecodeCost(pc) != cost {
					t.Errorf("%s/%v pc %d: cost %+v, want %+v", name, degree, pc, pp.DecodeCost(pc), cost)
				}
				if err := pp.Sequence(pc).Validate(); err != nil {
					t.Errorf("%s/%v pc %d: %v", name, degree, pc, err)
				}
			}
		}
	}
}

// TestRunPredecodedSharedAcrossStrategies runs every strategy concurrently on
// one shared predecoded program and checks the reports equal fresh Run calls.
func TestRunPredecodedSharedAcrossStrategies(t *testing.T) {
	dp := workload.MustCompileAt("sieve", compile.LevelStack)
	cfg := smallConfig()
	pp, err := Predecode(dp, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	strategies := Strategies()
	shared := make([]*Report, len(strategies))
	var wg sync.WaitGroup
	for i, s := range strategies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := RunPredecoded(pp, s, cfg)
			if err != nil {
				t.Errorf("%v: %v", s, err)
				return
			}
			shared[i] = rep
		}()
	}
	wg.Wait()
	for i, s := range strategies {
		fresh, err := Run(dp, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shared[i] == nil {
			t.Fatalf("%v: missing shared report", s)
		}
		if !reflect.DeepEqual(shared[i], fresh) {
			t.Errorf("%v: shared predecoded report differs from fresh run:\n%+v\n%+v", s, shared[i], fresh)
		}
	}
}

// TestRunPredecodedDegreeMismatch rejects a config whose degree disagrees
// with the predecoded binary.
func TestRunPredecodedDegreeMismatch(t *testing.T) {
	dp := workload.MustCompileAt("fib", compile.LevelStack)
	pp, err := Predecode(dp, dir.DegreePacked)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Degree = dir.DegreeHuffman
	if _, err := RunPredecoded(pp, Conventional, cfg); err == nil ||
		!strings.Contains(err.Error(), "does not match predecoded degree") {
		t.Fatalf("degree mismatch not rejected: %v", err)
	}
}

// TestBindingRejectsBinaryOfOtherProgram pins that a binding predecodes only
// encodings of its own program: a binary of another program would pair one
// program's decode costs with the other's translation.
func TestBindingRejectsBinaryOfOtherProgram(t *testing.T) {
	b, err := Bind(workload.MustCompileAt("fib", compile.LevelStack), nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := dir.Encode(workload.MustCompileAt("sieve", compile.LevelStack), dir.DegreePacked)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.PredecodeBinary(other); err == nil {
		t.Fatal("predecoding another program's binary succeeded")
	}
}

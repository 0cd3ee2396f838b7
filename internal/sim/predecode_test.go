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

// TestParkClearsVacatedSlots: a program keeps at most max replayers parked and
// drops the oldest past that; Unpark finds the newest of a class, matching
// configurations through Normalize; the footprint charges exactly what is
// parked; and every slot parking vacates is cleared, so the slice's backing
// array keeps no dropped or checked-out replayer reachable.
func TestParkClearsVacatedSlots(t *testing.T) {
	cfg := DefaultConfig()
	pp, err := Predecode(workload.MustCompileAt("fib", compile.LevelStack), cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]*Replayer, 3)
	for i := range rs {
		if rs[i], err = NewReplayer(pp, Conventional, cfg); err != nil {
			t.Fatal(err)
		}
	}
	base := pp.FootprintBytes()
	if pp.Park(rs[0], 2) || pp.Park(rs[1], 2) {
		t.Fatal("a replayer was dropped under the bound")
	}
	if !pp.Park(rs[2], 2) {
		t.Fatal("no replayer was dropped past the bound")
	}
	if got := pp.FootprintBytes() - base; got != 2*rs[0].bytes {
		t.Fatalf("parking grew the footprint by %d B, want two replayers' %d B", got, 2*rs[0].bytes)
	}
	zeroDepth := cfg
	zeroDepth.MaxDepth = 0
	if got := pp.Unpark(Conventional, zeroDepth); got != rs[2] {
		t.Fatal("Unpark did not return the newest replayer of the class")
	}
	if got := pp.Unpark(WithDTB, cfg); got != nil {
		t.Fatal("Unpark returned a replayer of another strategy")
	}
	if got := pp.Unpark(Conventional, cfg); got != rs[1] {
		t.Fatal("Unpark did not return the remaining replayer")
	}
	if got := pp.Unpark(Conventional, cfg); got != nil {
		t.Fatal("the oldest replayer was not dropped at the bound")
	}
	if got := pp.FootprintBytes(); got != base {
		t.Fatalf("footprint %d B with nothing parked, want %d B", got, base)
	}
	for i, r := range pp.parked[:cap(pp.parked)] {
		if r != nil {
			t.Fatalf("slot %d of the parked slice's backing array still holds a replayer", i)
		}
	}
}

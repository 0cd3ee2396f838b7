package sim

import (
	"errors"
	"reflect"
	"testing"

	"uhm/internal/compile"
	"uhm/internal/dir"
	"uhm/internal/dtb"
	"uhm/internal/memory"
	"uhm/internal/workload"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxInstructions = 5_000_000
	return cfg
}

func TestStrategyStrings(t *testing.T) {
	if len(Strategies()) != 5 {
		t.Fatalf("Strategies() = %v", Strategies())
	}
	names := map[Strategy]string{Conventional: "conventional", WithDTB: "dtb",
		WithCache: "cache", Expanded: "expanded", Compiled: "compiled"}
	for s, want := range names {
		if s.String() != want || !s.Valid() {
			t.Errorf("strategy %d: %q valid=%v", s, s.String(), s.Valid())
		}
	}
	if Strategy(9).Valid() || Strategy(9).String() == "" {
		t.Error("strategy 9 should be invalid but render")
	}
	if _, err := Run(workload.MustCompileAt("fib", compile.LevelStack), Strategy(9), smallConfig()); err == nil {
		t.Error("Run should reject invalid strategies")
	}
}

func TestAllStrategiesProduceReferenceOutput(t *testing.T) {
	for _, name := range []string{"loopsum", "fib", "sieve", "callheavy"} {
		want, err := workload.ReferenceOutput(name)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := Predecode(workload.MustCompileAt(name, compile.LevelStack), smallConfig().Degree)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := RunAllPredecoded(pp, smallConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rep := range reports {
			if !reflect.DeepEqual(rep.Output, want) {
				t.Errorf("%s/%v: output = %v, want %v", name, rep.Strategy, rep.Output, want)
			}
			if rep.Instructions <= 0 || rep.TotalCycles <= 0 || rep.PerInstruction <= 0 {
				t.Errorf("%s/%v: empty report %+v", name, rep.Strategy, rep)
			}
		}
	}
}

func TestDTBOutperformsConventionalOnLoopyCode(t *testing.T) {
	// The paper's central claim: with expensive decoding (a heavily encoded
	// DIR) and loop-dominated code, the DTB organisation interprets faster
	// than both the conventional UHM and the cache organisation is not
	// required to beat, but the conventional machine must lose.
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := smallConfig()
	cfg.Degree = dir.DegreePair // heaviest encoding: largest d

	conv, err := Run(dp, Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	withDTB, err := Run(dp, WithDTB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withDTB.PerInstruction >= conv.PerInstruction {
		t.Errorf("DTB per-instruction time %.2f should beat conventional %.2f",
			withDTB.PerInstruction, conv.PerInstruction)
	}
	if withDTB.Measured.HD < 0.9 {
		t.Errorf("loop-dominated code should give a high DTB hit ratio, got %v", withDTB.Measured.HD)
	}
	// Decoding only happens on misses, so far fewer decode cycles.
	if withDTB.DecodeCycles >= conv.DecodeCycles {
		t.Errorf("DTB decode cycles %d should be far below conventional %d",
			withDTB.DecodeCycles, conv.DecodeCycles)
	}
}

func TestCacheStrategyBeatsConventional(t *testing.T) {
	dp := workload.MustCompileAt("sieve", compile.LevelStack)
	cfg := smallConfig()
	conv, err := Run(dp, Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Run(dp, WithCache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cached.FetchCycles >= conv.FetchCycles {
		t.Errorf("cache fetch cycles %d should beat conventional %d", cached.FetchCycles, conv.FetchCycles)
	}
	if cached.Measured.HC < 0.8 {
		t.Errorf("instruction cache hit ratio = %v, expected high locality", cached.Measured.HC)
	}
	// Both still decode every instruction.
	if cached.DecodeCycles != conv.DecodeCycles {
		t.Errorf("cache and conventional must decode the same amount: %d vs %d",
			cached.DecodeCycles, conv.DecodeCycles)
	}
}

func TestExpandedHasNoDecodeButLargeRepresentation(t *testing.T) {
	dp := workload.MustCompileAt("fib", compile.LevelStack)
	cfg := smallConfig()
	exp, err := Run(dp, Expanded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exp.DecodeCycles != 0 || exp.TranslateCycles != 0 {
		t.Errorf("expanded strategy should not decode or translate: %+v", exp)
	}
	if exp.ExpandedWords*32 <= exp.StaticBits {
		t.Errorf("the expanded representation (%d bits) should dwarf the encoded DIR (%d bits)",
			exp.ExpandedWords*32, exp.StaticBits)
	}
	conv, err := Run(dp, Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if conv.ExpandedWords != 0 {
		t.Error("conventional report should not populate ExpandedWords")
	}
}

func TestMeasuredParametersPlausible(t *testing.T) {
	dp := workload.MustCompileAt("sieve", compile.LevelStack)
	cfg := smallConfig()
	cfg.Degree = dir.DegreeHuffman
	rep, err := Run(dp, WithDTB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Measured
	if m.D <= 0 || m.G <= 0 || m.X <= 0 || m.S1 <= 0 || m.S2 <= 0 {
		t.Fatalf("measured parameters should be positive: %+v", m)
	}
	if m.HD <= 0 || m.HD > 1 {
		t.Errorf("hit ratio = %v", m.HD)
	}
	// The dynamic (PSDER) form of an instruction is longer than its encoded
	// static form, which is the premise s1 = 3 s2 rests on.
	if m.S1 <= m.S2 {
		t.Errorf("s1 (%v) should exceed s2 (%v)", m.S1, m.S2)
	}
}

func TestDegreeAffectsDecodeCost(t *testing.T) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := smallConfig()
	cfg.Degree = dir.DegreePacked
	packed, err := Run(dp, Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Degree = dir.DegreePair
	pair, err := Run(dp, Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Measured.D <= packed.Measured.D {
		t.Errorf("pair-encoded decode cost (%v) should exceed packed (%v)", pair.Measured.D, packed.Measured.D)
	}
	if pair.StaticBits >= packed.StaticBits {
		t.Errorf("pair-encoded size (%d bits) should be below packed (%d bits)", pair.StaticBits, packed.StaticBits)
	}
}

func TestTinyDTBThrashes(t *testing.T) {
	dp := workload.MustCompileAt("sieve", compile.LevelStack)
	big := smallConfig()
	small := smallConfig()
	small.DTB = dtb.Config{Entries: 4, Assoc: 2, UnitWords: 4, Policy: dtb.VariableOverflow, OverflowUnits: 8}
	bigRep, err := Run(dp, WithDTB, big)
	if err != nil {
		t.Fatal(err)
	}
	smallRep, err := Run(dp, WithDTB, small)
	if err != nil {
		t.Fatal(err)
	}
	if smallRep.Measured.HD >= bigRep.Measured.HD {
		t.Errorf("a tiny DTB (h=%v) should have a lower hit ratio than the default (h=%v)",
			smallRep.Measured.HD, bigRep.Measured.HD)
	}
	if smallRep.PerInstruction <= bigRep.PerInstruction {
		t.Errorf("a tiny DTB (%v cycles/instr) should be slower than the default (%v)",
			smallRep.PerInstruction, bigRep.PerInstruction)
	}
}

func TestInstructionLimit(t *testing.T) {
	dp := workload.MustCompileAt("sieve", compile.LevelStack)
	cfg := smallConfig()
	cfg.MaxInstructions = 50
	if _, err := Run(dp, Conventional, cfg); !errors.Is(err, ErrInstructionLimit) {
		t.Errorf("err = %v, want ErrInstructionLimit", err)
	}
}

func TestSemanticCyclesIdenticalAcrossStrategies(t *testing.T) {
	// The four interpreted strategies execute the same semantic routines, so
	// x is common — the paper's assumption that "overlap between operand
	// fetch and other computation ... is common to all strategies".  The
	// compiled organisation is the exception by design: its native code has
	// the IU2 issue and binding overhead compiled away, so its x must be
	// strictly smaller.  Instruction counts still agree everywhere.
	pp, err := Predecode(workload.MustCompileAt("fib", compile.LevelStack), smallConfig().Degree)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := RunAllPredecoded(pp, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports[1:] {
		if rep.Strategy == Compiled {
			if rep.SemanticCycles >= reports[0].SemanticCycles {
				t.Errorf("compiled semantic cycles %d should be below interpreted %d",
					rep.SemanticCycles, reports[0].SemanticCycles)
			}
		} else if rep.SemanticCycles != reports[0].SemanticCycles {
			t.Errorf("%v semantic cycles %d != %v semantic cycles %d",
				rep.Strategy, rep.SemanticCycles, reports[0].Strategy, reports[0].SemanticCycles)
		}
		if rep.Instructions != reports[0].Instructions {
			t.Errorf("instruction counts differ: %d vs %d", rep.Instructions, reports[0].Instructions)
		}
	}
}

func TestHigherSemanticLevelReducesInterpretationTime(t *testing.T) {
	// Figure 1's vertical axis: a higher-level DIR means fewer, bigger
	// instructions and less total interpretation overhead.
	cfg := smallConfig()
	stack, err := Run(workload.MustCompileAt("loopsum", compile.LevelStack), Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem3, err := Run(workload.MustCompileAt("loopsum", compile.LevelMem3), Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mem3.Instructions >= stack.Instructions {
		t.Errorf("mem3 dynamic count %d should be below stack %d", mem3.Instructions, stack.Instructions)
	}
	if mem3.TotalCycles >= stack.TotalCycles {
		t.Errorf("mem3 total cycles %d should be below stack %d", mem3.TotalCycles, stack.TotalCycles)
	}
}

func BenchmarkSimConventional(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := smallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(dp, Conventional, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimWithDTB(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := smallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(dp, WithDTB, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompiledReportAccounting(t *testing.T) {
	// The compiled organisation's report must be internally consistent: its
	// fetches are level-1 references charged through the hierarchy (so
	// Report.Memory agrees with FetchCycles), no decode or translate work
	// remains, and the interpreter footprint is folded into CompiledWords.
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	rep, err := Run(dp, Compiled, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memory.Level1Refs == 0 {
		t.Error("compiled fetches should appear as level-1 references")
	}
	if rep.FetchCycles != rep.Memory.Level1Time {
		t.Errorf("FetchCycles = %d, hierarchy level-1 time = %d", rep.FetchCycles, rep.Memory.Level1Time)
	}
	if rep.DecodeCycles != 0 || rep.TranslateCycles != 0 {
		t.Errorf("compiled strategy should not decode or translate: %+v", rep)
	}
	if rep.InterpreterWords != 0 {
		t.Errorf("InterpreterWords = %d, want 0 (folded into CompiledWords)", rep.InterpreterWords)
	}
	if rep.CompiledWords == 0 {
		t.Error("CompiledWords should report the native-code footprint")
	}
}

// TestFetchChargesSpannedWords pins the replay loop's fetch geometry: an
// instruction costs one level-2 reference for each word its bit range
// touches, so a range straddling a word boundary costs two.
func TestFetchChargesSpannedWords(t *testing.T) {
	cfg := DefaultConfig()
	pp, err := Predecode(workload.MustCompileAt("sieve", compile.LevelStack), cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplayer(pp, Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[int64]bool{}
	for pc := 0; pc < pp.NumInstrs(); pc++ {
		off, n, err := pp.Binary.InstrBitRange(pc)
		if err != nil {
			t.Fatal(err)
		}
		touched := map[int]bool{}
		for bit := off; bit < off+max(n, 1); bit++ {
			touched[bit/32] = true
		}
		want := int64(len(touched))
		spans[want] = true
		before := r.hier.Stats().Level2Refs
		cycles, err := r.fetchFromLevel2(r.dirSeg, pp.Binary, pc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.hier.Stats().Level2Refs - before; got != want || cycles != memory.Cycles(want)*cfg.Memory.Level2Time {
			t.Errorf("pc %d, bits [%d,%d): %d references, %d cycles; want %d references", pc, off, off+n, got, cycles, want)
		}
	}
	if !spans[1] || !spans[2] {
		t.Errorf("sieve's instructions span %v words; the test needs both one and two", spans)
	}
}

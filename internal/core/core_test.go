package core

import (
	"context"
	"maps"
	"reflect"
	"strings"
	"testing"

	"uhm/internal/psder"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxInstructions = 3_000_000
	return cfg
}

func TestBuildAndRunPipeline(t *testing.T) {
	art, err := BuildWorkload("fib", LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	want, err := art.Reference()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(art, WithDTB, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Output, want) {
		t.Errorf("output = %v, want %v", rep.Output, want)
	}
	if bin, err := art.Encode(DegreeHuffman); err != nil || bin.SizeBits() == 0 {
		t.Errorf("encode: %v", err)
	}
	if !strings.Contains(art.Disassemble(), "fibo") {
		t.Error("disassembly should name the procedure")
	}
}

func TestBuildSourceErrors(t *testing.T) {
	if _, err := BuildSource("bad", "program", LevelStack); err == nil {
		t.Error("syntax error should fail")
	}
	if _, err := BuildSource("bad", "program p; begin x := 1 end.", LevelStack); err == nil {
		t.Error("semantic error should fail")
	}
	if _, err := BuildWorkload("nonexistent", LevelStack); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestEnumerationHelpers(t *testing.T) {
	if len(Levels()) != 3 || len(Degrees()) != 4 || len(Strategies()) != 5 {
		t.Errorf("enumerations: %v %v %v", Levels(), Degrees(), Strategies())
	}
	if len(Workloads()) < 5 {
		t.Errorf("workloads: %v", Workloads())
	}
	if len(DefaultExperimentWorkloads()) == 0 {
		t.Error("default experiment workloads should not be empty")
	}
}

func TestCompareAgreesWithReference(t *testing.T) {
	art, err := BuildWorkload("loopsum", LevelMem3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := art.Reference()
	reports, err := Compare(art, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		if !reflect.DeepEqual(rep.Output, want) {
			t.Errorf("%v output = %v, want %v", rep.Strategy, rep.Output, want)
		}
	}
}

func TestTable1Report(t *testing.T) {
	report := Table1Report()
	for _, want := range []string{"PSDER", "PDP-11", "System/360 RX"} {
		if !strings.Contains(report, want) {
			t.Errorf("Table 1 report missing %q", want)
		}
	}
}

func TestTables2And3(t *testing.T) {
	for name, corner := range map[string]string{"table2": "37.65", "table3": "78.82"} {
		text, err := Engine{}.Experiment(context.Background(), name, ExperimentOptions{}, quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, corner) {
			t.Errorf("%s missing corner cell %s:\n%s", name, corner, text)
		}
	}
}

func TestFigure1(t *testing.T) {
	rows, err := Engine{}.Figure1(context.Background(), []string{"loopsum"}, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 3 levels x 4 degrees.
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	// Within one level, size shrinks monotonically with encoding degree and
	// decode steps grow.
	byKey := make(map[string]Figure1Row)
	for _, r := range rows {
		byKey[r.Level.String()+"/"+r.Degree.String()] = r
	}
	packed := byKey["stack/packed"]
	pair := byKey["stack/pair"]
	if pair.StaticBits >= packed.StaticBits {
		t.Errorf("pair size %d should be below packed %d", pair.StaticBits, packed.StaticBits)
	}
	if pair.MeasuredDecode <= packed.MeasuredDecode {
		t.Errorf("pair decode %v should exceed packed %v", pair.MeasuredDecode, packed.MeasuredDecode)
	}
	// Higher semantic level → fewer cycles in total.
	if byKey["mem3/huffman"].TotalCycles >= byKey["stack/huffman"].TotalCycles {
		t.Error("mem3 should use fewer total cycles than stack at the same degree")
	}
	text := RenderFigure1(rows)
	if !strings.Contains(text, "Figure 1") || !strings.Contains(text, "loopsum") {
		t.Error("render missing content")
	}
}

func TestFigure2(t *testing.T) {
	org, rows, err := Engine{}.Figure2(context.Background(), "", quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(org, "associative tag array") {
		t.Errorf("organisation description = %q", org)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Hit ratio grows (weakly) with capacity, and the largest buffer should
	// capture the working set well.
	for i := 1; i < len(rows); i++ {
		if rows[i].HitRatio+0.02 < rows[i-1].HitRatio {
			t.Errorf("hit ratio should not fall substantially with capacity: %v then %v",
				rows[i-1].HitRatio, rows[i].HitRatio)
		}
	}
	if rows[len(rows)-1].HitRatio < 0.9 {
		t.Errorf("largest DTB hit ratio = %v, want >= 0.9", rows[len(rows)-1].HitRatio)
	}
	if !strings.Contains(RenderFigure2(org, rows), "hit ratio") {
		t.Error("render missing content")
	}
}

func TestFigure3(t *testing.T) {
	// callheavy calls 14 routines, more than the rendered top 10, so the
	// whole IU1/IU2 activity is pinned here rather than through the report.
	act, err := Engine{}.Figure3(context.Background(), "callheavy", quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if act.Instructions != 3481 || act.SemanticCycles <= 0 {
		t.Errorf("activity = %+v", act)
	}
	wantShort := map[psder.ShortOp]int64{
		psder.OpPush: 4383, psder.OpPop: 40, psder.OpCall: 2863, psder.OpInterp: 3480,
	}
	if !maps.Equal(act.ShortOps, wantShort) {
		t.Errorf("IU2 activity = %v, want %v", act.ShortOps, wantShort)
	}
	wantRoutines := map[psder.RoutineID]int64{
		psder.RoutineLoadVar: 1102, psder.RoutineStoreVar: 162, psder.RoutineAdd: 240,
		psder.RoutineSub: 80, psder.RoutineMul: 120, psder.RoutineMod: 135,
		psder.RoutineEq: 175, psder.RoutineLt: 41, psder.RoutineSelectIfZero: 216,
		psder.RoutineCall: 295, psder.RoutineReturn: 40, psder.RoutineReturnValue: 255,
		psder.RoutinePrint: 1, psder.RoutineHalt: 1,
	}
	if !maps.Equal(act.Routines, wantRoutines) {
		t.Errorf("IU1 activity = %v, want %v", act.Routines, wantRoutines)
	}
	text := RenderFigure3(act)
	for _, want := range []string{"Figure 3", "IU1", "IU2", "INTERP", "level-2 memory"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure4(t *testing.T) {
	stats, err := Engine{}.Figure4(context.Background(), "", quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Interps != stats.HitPath+stats.MissPath {
		t.Errorf("INTERP executions %d != hits %d + misses %d", stats.Interps, stats.HitPath, stats.MissPath)
	}
	if stats.HitRatio <= 0.5 {
		t.Errorf("hit ratio = %v, expected mostly hit path", stats.HitRatio)
	}
	if stats.AvgMissCost <= stats.AvgHitCost {
		t.Errorf("miss path (%v) should cost more than hit path (%v)", stats.AvgMissCost, stats.AvgHitCost)
	}
	if !strings.Contains(RenderFigure4(stats), "DTRPOINT") {
		t.Error("render should mention the DTRPOINT trap")
	}
}

func TestEmpirical(t *testing.T) {
	rows, err := Engine{}.Empirical(context.Background(), []string{"loopsum", "fib"}, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0].Reports) != 5 {
		t.Fatalf("rows = %d reports = %d", len(rows), len(rows[0].Reports))
	}
	text := RenderEmpirical(rows)
	for _, want := range []string{"loopsum", "dtb", "conventional", "measured F2"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// The DTB organisation must win on the loop-dominated workload.
	var conv, withDTB *Report
	for _, rep := range rows[0].Reports {
		switch rep.Strategy {
		case Conventional:
			conv = rep
		case WithDTB:
			withDTB = rep
		}
	}
	if withDTB.PerInstruction >= conv.PerInstruction {
		t.Errorf("DTB (%v cycles/instr) should beat conventional (%v) on loopsum",
			withDTB.PerInstruction, conv.PerInstruction)
	}
}

func TestCompaction(t *testing.T) {
	rows, err := Engine{}.Compaction(context.Background(), []string{"sieve", "fib"}, LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Bits[DegreePair] >= r.Bits[DegreePacked] {
			t.Errorf("%s: pair (%d bits) should be smaller than packed (%d bits)",
				r.Workload, r.Bits[DegreePair], r.Bits[DegreePacked])
		}
		// The paper cites 25-75% memory reduction from encoding; our heaviest
		// degree should save at least 20% over packed fields.
		if r.Reduction[DegreePair] < 0.20 {
			t.Errorf("%s: saving = %v, want >= 0.20", r.Workload, r.Reduction[DegreePair])
		}
		if r.Expanded <= r.Bits[DegreePacked] {
			t.Errorf("%s: expanded form (%d bits) should dwarf even the packed DIR (%d bits)",
				r.Workload, r.Expanded, r.Bits[DegreePacked])
		}
	}
	if !strings.Contains(RenderCompaction(rows), "saving") {
		t.Error("render missing content")
	}
}

func TestFigure1DefaultsAndEmpiricalDefaults(t *testing.T) {
	// Smoke-test the default workload lists with a cheaper config.
	cfg := quickConfig()
	if _, err := (Engine{}).Empirical(context.Background(), nil, cfg); err != nil {
		t.Fatalf("Empirical defaults: %v", err)
	}
	if _, err := (Engine{}).Compaction(context.Background(), nil, LevelStack); err != nil {
		t.Fatalf("Compaction defaults: %v", err)
	}
}

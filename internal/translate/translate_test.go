package translate

import (
	"strings"
	"testing"

	"uhm/internal/dir"
	"uhm/internal/psder"
)

func TestHaltTranslation(t *testing.T) {
	seq, err := Translate(dir.Instruction{Op: dir.OpHalt}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1 || seq[0].Op != psder.OpCall || seq[0].Routine() != psder.RoutineHalt {
		t.Errorf("halt sequence = %v", seq)
	}
}

func TestJumpTranslatesToSingleInterp(t *testing.T) {
	seq, err := Translate(dir.Instruction{Op: dir.OpJump, Target: 17}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1 || seq[0].Op != psder.OpInterp || seq[0].Mode != psder.ModeImm || seq[0].Arg != 17 {
		t.Errorf("jump sequence = %v", seq)
	}
}

func TestPushConstSmall(t *testing.T) {
	seq, err := Translate(dir.Instruction{Op: dir.OpPushConst, Operands: []dir.Operand{dir.ImmOperand(42)}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := psder.Sequence{psder.Push(42), psder.InterpImm(6)}
	if len(seq) != len(want) || seq[0] != want[0] || seq[1] != want[1] {
		t.Errorf("sequence = %v, want %v", seq, want)
	}
}

func TestPushConstWideDecomposes(t *testing.T) {
	big := int64(3) << 40
	seq, err := Translate(dir.Instruction{Op: dir.OpPushConst, Operands: []dir.Operand{dir.ImmOperand(big)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Validate(); err != nil {
		t.Fatalf("decomposed sequence invalid: %v", err)
	}
	if len(seq) <= 2 {
		t.Fatalf("wide constant should decompose into multiple instructions, got %v", seq)
	}
	// Every argument must fit the 24-bit field (Validate checks this), and
	// the sequence must still end with the sequential INTERP.
	last := seq[len(seq)-1]
	if last.Op != psder.OpInterp || last.Arg != 1 {
		t.Errorf("last instruction = %v", last)
	}
	negSeq, err := Translate(dir.Instruction{Op: dir.OpPushConst, Operands: []dir.Operand{dir.ImmOperand(-big)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := negSeq.Validate(); err != nil {
		t.Fatalf("negative wide constant sequence invalid: %v", err)
	}
}

func TestVariableAccessTranslations(t *testing.T) {
	pushVar, err := Translate(dir.Instruction{Op: dir.OpPushVar, Operands: []dir.Operand{dir.VarOperand(1, 3)}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// PUSH depth, PUSH offset, CALL load-var, INTERP 3.
	if len(pushVar) != 4 || pushVar[0].Arg != 1 || pushVar[1].Arg != 3 ||
		pushVar[2].Routine() != psder.RoutineLoadVar || pushVar[3].Arg != 3 {
		t.Errorf("push-var sequence = %v", pushVar)
	}
	storeIdx, err := Translate(dir.Instruction{Op: dir.OpStoreIndexed, Operands: []dir.Operand{dir.VarOperand(0, 2)}}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if storeIdx.Calls() != 1 || storeIdx[2].Routine() != psder.RoutineStoreIndexed {
		t.Errorf("store-indexed sequence = %v", storeIdx)
	}
}

func TestConditionalBranchUsesStackInterp(t *testing.T) {
	seq, err := Translate(dir.Instruction{Op: dir.OpJumpZero, Target: 20}, 7)
	if err != nil {
		t.Fatal(err)
	}
	last := seq[len(seq)-1]
	if last.Op != psder.OpInterp || last.Mode != psder.ModeStack {
		t.Errorf("conditional branch must end with INTERP (stack): %v", seq)
	}
	// The target and fall-through addresses are pushed as parameters.
	if seq[0] != psder.Push(20) || seq[1] != psder.Push(8) {
		t.Errorf("branch parameters = %v", seq[:2])
	}
}

func TestCallAndReturnTranslations(t *testing.T) {
	call, err := Translate(dir.Instruction{Op: dir.OpCall, Proc: 2, NArgs: 3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if call.Calls() != 1 || call[3].Routine() != psder.RoutineCall {
		t.Errorf("call sequence = %v", call)
	}
	if call[0] != psder.Push(2) || call[1] != psder.Push(3) || call[2] != psder.Push(12) {
		t.Errorf("call parameters = %v", call[:3])
	}
	if call[len(call)-1].Mode != psder.ModeStack {
		t.Error("call must end with INTERP (stack)")
	}
	ret, err := Translate(dir.Instruction{Op: dir.OpReturnValue}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ret[0].Routine() != psder.RoutineReturnValue || ret[1].Mode != psder.ModeStack {
		t.Errorf("return sequence = %v", ret)
	}
}

func TestArithmeticAndPopTranslations(t *testing.T) {
	cases := map[dir.Opcode]psder.RoutineID{
		dir.OpAdd: psder.RoutineAdd, dir.OpMul: psder.RoutineMul, dir.OpMod: psder.RoutineMod,
		dir.OpEq: psder.RoutineEq, dir.OpGe: psder.RoutineGe, dir.OpAnd: psder.RoutineAnd,
		dir.OpNeg: psder.RoutineNeg, dir.OpNot: psder.RoutineNot, dir.OpPrint: psder.RoutinePrint,
	}
	for op, routine := range cases {
		seq, err := Translate(dir.Instruction{Op: op}, 4)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if len(seq) != 2 || seq[0].Routine() != routine || seq[1] != psder.InterpImm(5) {
			t.Errorf("%v sequence = %v", op, seq)
		}
	}
	popSeq, err := Translate(dir.Instruction{Op: dir.OpPop}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if popSeq[0].Op != psder.OpPop {
		t.Errorf("pop sequence = %v", popSeq)
	}
}

func TestMemoryFormTranslations(t *testing.T) {
	mov, err := Translate(dir.Instruction{
		Op:       dir.OpMove,
		Operands: []dir.Operand{dir.VarOperand(0, 1), dir.ImmOperand(7)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mov.Calls() != 1 || mov[len(mov)-2].Routine() != psder.RoutineStoreVar {
		t.Errorf("move sequence = %v", mov)
	}
	add3, err := Translate(dir.Instruction{
		Op:       dir.OpAdd3,
		Operands: []dir.Operand{dir.VarOperand(0, 0), dir.VarOperand(0, 1), dir.ImmOperand(2)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if add3.Calls() != 3 { // load, add, store
		t.Errorf("add3 sequence should call 3 routines: %v", add3)
	}
	add2, err := Translate(dir.Instruction{
		Op:       dir.OpAdd2,
		Operands: []dir.Operand{dir.VarOperand(0, 0), dir.ImmOperand(1)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if add2.Calls() != 3 { // load dst, add, store dst
		t.Errorf("add2 sequence should call 3 routines: %v", add2)
	}
	br, err := Translate(dir.Instruction{
		Op:       dir.OpBrLt,
		Operands: []dir.Operand{dir.VarOperand(0, 0), dir.VarOperand(0, 1)},
		Target:   3,
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if br[len(br)-1].Mode != psder.ModeStack || br[len(br)-2].Routine() != psder.RoutineSelectLt {
		t.Errorf("compare-branch sequence = %v", br)
	}
	prt, err := Translate(dir.Instruction{
		Op:       dir.OpPrintOperand,
		Operands: []dir.Operand{dir.VarOperand(0, 0)},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prt.Calls() != 2 { // load + print
		t.Errorf("print-operand sequence = %v", prt)
	}
}

func TestUnsupportedOpcode(t *testing.T) {
	if _, err := Translate(dir.Instruction{Op: dir.Opcode(200)}, 0); err == nil {
		t.Error("unknown opcode should fail")
	}
	bad := dir.Instruction{Op: dir.OpMove, Operands: []dir.Operand{dir.VarOperand(0, 0), {Mode: dir.AddrMode(9)}}}
	if _, err := Translate(bad, 0); err == nil {
		t.Error("unsupported operand mode should fail")
	}
}

func TestEverySequenceValidatesAndEncodes(t *testing.T) {
	// Every opcode the ISA defines must translate into a sequence that
	// validates, which includes every argument fitting the 24-bit field of
	// its buffer-array word.
	for op := dir.Opcode(0); op.Valid(); op++ {
		in := dir.Instruction{Op: op, Target: 1, Proc: 0, NArgs: 0}
		for i := 0; i < op.NumOperands(); i++ {
			in.Operands = append(in.Operands, dir.VarOperand(0, i))
		}
		seq, err := Translate(in, 0)
		if err != nil {
			t.Errorf("%v: %v", op, err)
			continue
		}
		if err := seq.Validate(); err != nil {
			t.Errorf("%v: invalid sequence: %v", op, err)
		}
	}
}

func TestTranslateProgramAndCost(t *testing.T) {
	p := &dir.Program{
		Name:  "t",
		Procs: []dir.Proc{{Name: "t", Entry: 0, FrameSlots: 1}},
		Contours: []dir.Contour{
			{Parent: 0, Locals: []dir.ContourVar{{Addr: dir.VarAddr{Depth: 0, Offset: 0}, Size: 1}}},
		},
		Instrs: []dir.Instruction{
			{Op: dir.OpPushConst, Operands: []dir.Operand{dir.ImmOperand(4)}},
			{Op: dir.OpStoreVar, Operands: []dir.Operand{dir.VarOperand(0, 0)}},
			{Op: dir.OpHalt},
		},
	}
	seqs, err := TranslateProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("sequences = %d", len(seqs))
	}
	cost := Cost(seqs)
	if cost.AvgWords <= 0 || cost.AvgSemanticCost <= 0 || cost.TotalWords <= 0 {
		t.Errorf("cost = %+v", cost)
	}
	if Cost(nil) != (StaticCost{}) {
		t.Error("Cost(nil) should be zero")
	}
	// The dynamic representation should be longer than one word per DIR
	// instruction on average (the paper assumes s1 = 3 x s2).
	if cost.AvgWords < 1.5 {
		t.Errorf("average PSDER words per DIR instruction = %v, expected > 1.5", cost.AvgWords)
	}

	bad := &dir.Program{
		Name:     "bad",
		Procs:    []dir.Proc{{Name: "bad", Entry: 0, FrameSlots: 1}},
		Contours: []dir.Contour{{Parent: 0}},
		Instrs:   []dir.Instruction{{Op: dir.Opcode(200)}},
	}
	if _, err := TranslateProgram(bad); err == nil || !strings.Contains(err.Error(), "instruction 0") {
		t.Errorf("TranslateProgram error = %v", err)
	}
}

func BenchmarkTranslate(b *testing.B) {
	in := dir.Instruction{Op: dir.OpAdd3, Operands: []dir.Operand{
		dir.VarOperand(0, 0), dir.VarOperand(0, 1), dir.ImmOperand(2),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Translate(in, 5); err != nil {
			b.Fatal(err)
		}
	}
}

package dir

import (
	"errors"
	"reflect"
	"testing"
)

// loopProgram builds: s := 0; i := 1; while i <= n { s += i; i++ }; print s
// at the stack level, with n supplied as a constant.
func loopProgram(n int64) *Program {
	return &Program{
		Name:  "loop",
		Level: "stack",
		Procs: []Proc{{Name: "loop", Entry: 0, FrameSlots: 3}},
		Contours: []Contour{{Parent: 0, Locals: []ContourVar{
			{Addr: VarAddr{0, 0}, Size: 1}, // s
			{Addr: VarAddr{0, 1}, Size: 1}, // i
			{Addr: VarAddr{0, 2}, Size: 1}, // n
		}}},
		Instrs: []Instruction{
			/* 0*/ {Op: OpPushConst, Operands: []Operand{ImmOperand(0)}},
			/* 1*/ {Op: OpStoreVar, Operands: []Operand{VarOperand(0, 0)}},
			/* 2*/ {Op: OpPushConst, Operands: []Operand{ImmOperand(1)}},
			/* 3*/ {Op: OpStoreVar, Operands: []Operand{VarOperand(0, 1)}},
			/* 4*/ {Op: OpPushConst, Operands: []Operand{ImmOperand(n)}},
			/* 5*/ {Op: OpStoreVar, Operands: []Operand{VarOperand(0, 2)}},
			// loop head
			/* 6*/ {Op: OpPushVar, Operands: []Operand{VarOperand(0, 1)}},
			/* 7*/ {Op: OpPushVar, Operands: []Operand{VarOperand(0, 2)}},
			/* 8*/ {Op: OpLe},
			/* 9*/ {Op: OpJumpZero, Target: 18},
			/*10*/ {Op: OpPushVar, Operands: []Operand{VarOperand(0, 0)}},
			/*11*/ {Op: OpPushVar, Operands: []Operand{VarOperand(0, 1)}},
			/*12*/ {Op: OpAdd},
			/*13*/ {Op: OpStoreVar, Operands: []Operand{VarOperand(0, 0)}},
			/*14*/ {Op: OpPushVar, Operands: []Operand{VarOperand(0, 1)}},
			/*15*/ {Op: OpPushConst, Operands: []Operand{ImmOperand(1)}},
			/*16*/ {Op: OpAdd},
			/*17 -> patched below*/ {Op: OpStoreVar, Operands: []Operand{VarOperand(0, 1)}},
			/*18 is exit; but we need the back jump first*/
			{Op: OpJump, Target: 6},
			/*19*/ {Op: OpPushVar, Operands: []Operand{VarOperand(0, 0)}},
			/*20*/ {Op: OpPrint},
			/*21*/ {Op: OpHalt},
		},
	}
}

func fixLoopTargets(p *Program) *Program {
	// The literal indices above drifted by one because of the back jump;
	// recompute: exit is the index of the PUSHV before PRINT.
	for i := range p.Instrs {
		if p.Instrs[i].Op == OpJumpZero {
			p.Instrs[i].Target = 19
		}
	}
	return p
}

func TestExecuteLoopSum(t *testing.T) {
	p := fixLoopTargets(loopProgram(10))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 55 {
		t.Errorf("output = %v, want [55]", res.Output)
	}
	// 6 set-up instructions, 10 iterations of the 13-instruction loop, the
	// failing loop test (4) and the exit (3).
	if res.Executed != 143 {
		t.Errorf("executed = %d, want 143", res.Executed)
	}
}

func TestExecuteCallAndReturn(t *testing.T) {
	p := testProgram() // main calls f(5): f returns 5-1 = 4 because 5 >= 2
	res, err := Execute(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 4 {
		t.Errorf("output = %v, want [4]", res.Output)
	}
}

func TestExecuteHighLevelOpcodes(t *testing.T) {
	p := highLevelProgram()
	res, err := Execute(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The loop runs until var0 reaches 10; var2 ends at 9 + 1 = 10.
	if len(res.Output) != 1 || res.Output[0] != 10 {
		t.Errorf("output = %v, want [10]", res.Output)
	}
}

func TestExecuteInvalidProgramRejected(t *testing.T) {
	p := testProgram()
	p.Instrs[0].Operands = nil
	if _, err := Execute(p, ExecOptions{}); err == nil {
		t.Error("Execute should validate the program first")
	}
}

func TestExecuteStepLimit(t *testing.T) {
	p := &Program{
		Name:     "spin",
		Procs:    []Proc{{Name: "spin", Entry: 0, FrameSlots: 1}},
		Contours: []Contour{{Parent: 0, Locals: []ContourVar{{Addr: VarAddr{0, 0}, Size: 1}}}},
		Instrs: []Instruction{
			{Op: OpJump, Target: 0},
			{Op: OpHalt},
		},
	}
	if _, err := Execute(p, ExecOptions{MaxSteps: 100}); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestExecuteCallDepthLimit(t *testing.T) {
	p := &Program{
		Name: "deep",
		Procs: []Proc{
			{Name: "deep", Entry: 0, FrameSlots: 1},
			{Name: "r", Entry: 2, NumParams: 0, FrameSlots: 0, Depth: 1},
		},
		Contours: []Contour{
			{Parent: 0, Locals: []ContourVar{{Addr: VarAddr{0, 0}, Size: 1}}},
			{Parent: 0},
		},
		Instrs: []Instruction{
			{Op: OpCall, Proc: 1, NArgs: 0},
			{Op: OpHalt},
			{Op: OpCall, Proc: 1, NArgs: 0, Contour: 1},
			{Op: OpReturn, Contour: 1},
		},
	}
	if _, err := Execute(p, ExecOptions{MaxDepth: 20}); !errors.Is(err, ErrCallDepth) {
		t.Errorf("err = %v, want ErrCallDepth", err)
	}
}

func TestExecuteDivideByZero(t *testing.T) {
	p := &Program{
		Name:     "dz",
		Procs:    []Proc{{Name: "dz", Entry: 0, FrameSlots: 1}},
		Contours: []Contour{{Parent: 0, Locals: []ContourVar{{Addr: VarAddr{0, 0}, Size: 1}}}},
		Instrs: []Instruction{
			{Op: OpPushConst, Operands: []Operand{ImmOperand(1)}},
			{Op: OpPushConst, Operands: []Operand{ImmOperand(0)}},
			{Op: OpDiv},
			{Op: OpHalt},
		},
	}
	if _, err := Execute(p, ExecOptions{}); !errors.Is(err, ErrDivideByZero) {
		t.Errorf("err = %v, want ErrDivideByZero", err)
	}
	p.Instrs[2].Op = OpMod
	if _, err := Execute(p, ExecOptions{}); !errors.Is(err, ErrDivideByZero) {
		t.Errorf("mod err = %v, want ErrDivideByZero", err)
	}
}

func TestExecuteAddressRange(t *testing.T) {
	p := &Program{
		Name:     "oob",
		Procs:    []Proc{{Name: "oob", Entry: 0, FrameSlots: 2}},
		Contours: []Contour{{Parent: 0, Locals: []ContourVar{{Addr: VarAddr{0, 0}, Size: 2}}}},
		Instrs: []Instruction{
			{Op: OpPushConst, Operands: []Operand{ImmOperand(5)}}, // index 5: out of frame
			{Op: OpPushIndexed, Operands: []Operand{VarOperand(0, 0)}},
			{Op: OpHalt},
		},
	}
	if _, err := Execute(p, ExecOptions{}); !errors.Is(err, ErrAddressRange) {
		t.Errorf("err = %v, want ErrAddressRange", err)
	}
}

func TestExecuteStackUnderflow(t *testing.T) {
	p := &Program{
		Name:     "under",
		Procs:    []Proc{{Name: "under", Entry: 0, FrameSlots: 1}},
		Contours: []Contour{{Parent: 0, Locals: []ContourVar{{Addr: VarAddr{0, 0}, Size: 1}}}},
		Instrs: []Instruction{
			{Op: OpAdd},
			{Op: OpHalt},
		},
	}
	if _, err := Execute(p, ExecOptions{}); !errors.Is(err, ErrStackUnderflow) {
		t.Errorf("err = %v, want ErrStackUnderflow", err)
	}
}

func TestExecuteReturnFromMainHalts(t *testing.T) {
	p := &Program{
		Name:     "retmain",
		Procs:    []Proc{{Name: "retmain", Entry: 0, FrameSlots: 1}},
		Contours: []Contour{{Parent: 0, Locals: []ContourVar{{Addr: VarAddr{0, 0}, Size: 1}}}},
		Instrs: []Instruction{
			{Op: OpPushConst, Operands: []Operand{ImmOperand(1)}},
			{Op: OpPrint},
			{Op: OpReturn},
			{Op: OpPushConst, Operands: []Operand{ImmOperand(2)}},
			{Op: OpPrint},
			{Op: OpHalt},
		},
	}
	res, err := Execute(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int64{1}) {
		t.Errorf("output = %v, want [1]", res.Output)
	}
}

func TestApplyArithAndCompareBranchErrors(t *testing.T) {
	if _, err := ApplyArith(OpJump, 1, 2); err == nil {
		t.Error("ApplyArith should reject non-arithmetic opcodes")
	}
	if _, err := CompareBranch(OpAdd, 1, 2); err == nil {
		t.Error("CompareBranch should reject non-branch opcodes")
	}
	if v, _ := ApplyArith(OpAnd, 2, 3); v != 1 {
		t.Errorf("AND of non-zero values = %d, want 1", v)
	}
	if v, _ := ApplyArith(OpOr, 0, 0); v != 0 {
		t.Errorf("OR of zeros = %d, want 0", v)
	}
	if taken, _ := CompareBranch(OpBrGe, 3, 3); !taken {
		t.Error("3 >= 3 should be taken")
	}
}

func TestTwoAndThreeOpBase(t *testing.T) {
	if twoOpBase(OpAdd2) != OpAdd || twoOpBase(OpMod2) != OpMod || twoOpBase(OpHalt) != OpHalt {
		t.Error("twoOpBase mapping")
	}
	if threeOpBase(OpMul3) != OpMul || threeOpBase(OpDiv3) != OpDiv || threeOpBase(OpHalt) != OpHalt {
		t.Error("threeOpBase mapping")
	}
}

func TestMachineStateAccessors(t *testing.T) {
	p := testProgram()
	m := NewMachineState(p)
	if m.CallDepth() != 1 || m.StackDepth() != 0 || m.CurrentFrame() == nil {
		t.Errorf("fresh machine state: depth=%d stack=%d", m.CallDepth(), m.StackDepth())
	}
	m.Push(7)
	if v, err := m.Pop(); err != nil || v != 7 {
		t.Errorf("push/pop = %d, %v", v, err)
	}
	if _, err := m.Pop(); !errors.Is(err, ErrStackUnderflow) {
		t.Errorf("pop empty = %v", err)
	}
}

func BenchmarkExecuteLoop(b *testing.B) {
	p := fixLoopTargets(loopProgram(100))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(p, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

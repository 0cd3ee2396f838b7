package dir

import (
	"strings"
	"testing"
)

// testProgram returns a small, valid, hand-built DIR program containing a
// main body and one procedure, exercising stack, call and branch opcodes.
func testProgram() *Program {
	main := 0
	f := 1
	return &Program{
		Name:  "test",
		Level: "stack",
		Procs: []Proc{
			{Name: "test", Entry: 0, NumParams: 0, FrameSlots: 2, Depth: 0},
			{Name: "f", Entry: 8, NumParams: 1, FrameSlots: 2, Depth: 1},
		},
		Contours: []Contour{
			{Parent: 0, Locals: []ContourVar{
				{Addr: VarAddr{0, 0}, Size: 1},
				{Addr: VarAddr{0, 1}, Size: 1},
			}},
			{Parent: 0, Locals: []ContourVar{
				{Addr: VarAddr{1, 0}, Size: 1},
				{Addr: VarAddr{1, 1}, Size: 1},
			}},
		},
		Instrs: []Instruction{
			// main
			{Op: OpPushConst, Operands: []Operand{ImmOperand(5)}, Contour: main},
			{Op: OpStoreVar, Operands: []Operand{VarOperand(0, 0)}, Contour: main},
			{Op: OpPushVar, Operands: []Operand{VarOperand(0, 0)}, Contour: main},
			{Op: OpCall, Proc: 1, NArgs: 1, Contour: main},
			{Op: OpStoreVar, Operands: []Operand{VarOperand(0, 1)}, Contour: main},
			{Op: OpPushVar, Operands: []Operand{VarOperand(0, 1)}, Contour: main},
			{Op: OpPrint, Contour: main},
			{Op: OpHalt, Contour: main},
			// f(k): if k < 2 return k else return k - 1
			{Op: OpPushVar, Operands: []Operand{VarOperand(1, 0)}, Contour: f},
			{Op: OpPushConst, Operands: []Operand{ImmOperand(2)}, Contour: f},
			{Op: OpLt, Contour: f},
			{Op: OpJumpZero, Target: 14, Contour: f},
			{Op: OpPushVar, Operands: []Operand{VarOperand(1, 0)}, Contour: f},
			{Op: OpReturnValue, Contour: f},
			{Op: OpPushVar, Operands: []Operand{VarOperand(1, 0)}, Contour: f},
			{Op: OpPushConst, Operands: []Operand{ImmOperand(1)}, Contour: f},
			{Op: OpSub, Contour: f},
			{Op: OpReturnValue, Contour: f},
		},
	}
}

// highLevelProgram returns a valid program using the two- and three-operand
// memory opcodes and compound branches.
func highLevelProgram() *Program {
	return &Program{
		Name:  "high",
		Level: "high",
		Procs: []Proc{
			{Name: "high", Entry: 0, NumParams: 0, FrameSlots: 3, Depth: 0},
		},
		Contours: []Contour{
			{Parent: 0, Locals: []ContourVar{
				{Addr: VarAddr{0, 0}, Size: 1},
				{Addr: VarAddr{0, 1}, Size: 1},
				{Addr: VarAddr{0, 2}, Size: 1},
			}},
		},
		Instrs: []Instruction{
			{Op: OpMove, Operands: []Operand{VarOperand(0, 0), ImmOperand(0)}},
			{Op: OpMove, Operands: []Operand{VarOperand(0, 1), ImmOperand(1)}},
			{Op: OpAdd3, Operands: []Operand{VarOperand(0, 2), VarOperand(0, 0), VarOperand(0, 1)}},
			{Op: OpAdd2, Operands: []Operand{VarOperand(0, 0), ImmOperand(1)}},
			{Op: OpBrLt, Operands: []Operand{VarOperand(0, 0), ImmOperand(10)}, Target: 2},
			{Op: OpPrintOperand, Operands: []Operand{VarOperand(0, 2)}},
			{Op: OpHalt},
		},
	}
}

func TestOpcodeProperties(t *testing.T) {
	if NumOpcodes <= 0 || NumAddrModes != 2 {
		t.Fatalf("NumOpcodes=%d NumAddrModes=%d", NumOpcodes, NumAddrModes)
	}
	for op := Opcode(0); op.Valid(); op++ {
		if op.String() == "" || strings.HasPrefix(op.String(), "OP(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if n := op.NumOperands(); n < 0 || n > 3 {
			t.Errorf("opcode %s has bad operand count %d", op, n)
		}
	}
	if Opcode(200).Valid() {
		t.Error("opcode 200 should be invalid")
	}
	if Opcode(200).String() == "" {
		t.Error("invalid opcode should still render")
	}
	if !OpJump.HasTarget() || !OpBrLt.HasTarget() || OpAdd.HasTarget() {
		t.Error("HasTarget misclassifies")
	}
	if !OpCall.IsCall() || OpJump.IsCall() {
		t.Error("IsCall misclassifies")
	}
	if !OpBrGe.IsBranchCompare() || OpJump.IsBranchCompare() {
		t.Error("IsBranchCompare misclassifies")
	}
	if ModeImm.String() != "imm" || ModeVar.String() != "var" || AddrMode(9).String() == "" {
		t.Error("mode strings")
	}
	if AddrMode(9).Valid() {
		t.Error("mode 9 should be invalid")
	}
}

func TestOperandConstructorsAndStrings(t *testing.T) {
	imm := ImmOperand(-7)
	if imm.Mode != ModeImm || imm.Imm != -7 || imm.String() != "#-7" {
		t.Errorf("imm operand = %+v %q", imm, imm.String())
	}
	v := VarOperand(2, 3)
	if v.Mode != ModeVar || v.Addr != (VarAddr{2, 3}) || v.String() != "2.3" {
		t.Errorf("var operand = %+v %q", v, v.String())
	}
	bad := Operand{Mode: AddrMode(9)}
	if bad.String() == "" {
		t.Error("invalid operand should render")
	}
}

func TestInstructionString(t *testing.T) {
	in := Instruction{Op: OpCall, Proc: 2, NArgs: 3}
	if got := in.String(); !strings.Contains(got, "CALL") || !strings.Contains(got, "proc2/3") {
		t.Errorf("call string = %q", got)
	}
	br := Instruction{Op: OpBrLt, Operands: []Operand{VarOperand(0, 0), ImmOperand(4)}, Target: 9}
	if got := br.String(); !strings.Contains(got, "->9") {
		t.Errorf("branch string = %q", got)
	}
}

func TestValidateAcceptsGoodPrograms(t *testing.T) {
	if err := testProgram().Validate(); err != nil {
		t.Errorf("testProgram invalid: %v", err)
	}
	if err := highLevelProgram().Validate(); err != nil {
		t.Errorf("highLevelProgram invalid: %v", err)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(p *Program)
		want   string
	}{
		{"no instructions", func(p *Program) { p.Instrs = nil }, "no instructions"},
		{"no procs", func(p *Program) { p.Procs = nil }, "no procedures"},
		{"contour count", func(p *Program) { p.Contours = p.Contours[:1] }, "contours for"},
		{"bad entry", func(p *Program) { p.Procs[1].Entry = 99 }, "entry 99 out of range"},
		{"bad frame", func(p *Program) { p.Procs[1].FrameSlots = 0 }, "frame slots"},
		{"bad contour parent", func(p *Program) { p.Contours[1].Parent = 7 }, "parent 7 out of range"},
		{"bad opcode", func(p *Program) { p.Instrs[0].Op = Opcode(250) }, "invalid opcode"},
		{"bad operand count", func(p *Program) { p.Instrs[0].Operands = nil }, "has 0 operands"},
		{"bad operand mode", func(p *Program) { p.Instrs[0].Operands[0].Mode = AddrMode(9) }, "invalid mode"},
		{"negative address", func(p *Program) {
			p.Instrs[1].Operands[0] = Operand{Mode: ModeVar, Addr: VarAddr{-1, 0}}
		}, "negative address"},
		{"bad target", func(p *Program) { p.Instrs[11].Target = 99 }, "target 99 out of range"},
		{"bad call proc", func(p *Program) { p.Instrs[3].Proc = 9 }, "unknown procedure"},
		{"bad call args", func(p *Program) { p.Instrs[3].NArgs = 2 }, "passes 2 args"},
		{"bad contour index", func(p *Program) { p.Instrs[0].Contour = 9 }, "contour 9 out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := testProgram()
			c.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want it to contain %q", err, c.want)
			}
		})
	}
}

func TestDisassemble(t *testing.T) {
	text := testProgram().Disassemble()
	for _, want := range []string{"program test", "PUSHC #5", "CALL proc1/1", "f (proc 1)", "JZ ->14"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestVisibleVarsAndIndex(t *testing.T) {
	p := testProgram()
	rootVis := p.VisibleVars(0)
	if len(rootVis) != 2 {
		t.Fatalf("contour 0 visible = %d, want 2", len(rootVis))
	}
	procVis := p.VisibleVars(1)
	if len(procVis) != 4 {
		t.Fatalf("contour 1 visible = %d, want 4", len(procVis))
	}
	// Outermost declarations come first in the canonical order.
	if procVis[0].Addr != (VarAddr{0, 0}) || procVis[3].Addr != (VarAddr{1, 1}) {
		t.Errorf("visible order = %v", procVis)
	}
	// The contour encoder indexes operands into the same lists.
	bin, err := Encode(p, DegreeContour)
	if err != nil {
		t.Fatal(err)
	}
	if idx := bin.visibleIndex(1, VarAddr{1, 0}); idx != 2 {
		t.Errorf("visibleIndex(1, 1.0) = %d, want 2", idx)
	}
	if idx := bin.visibleIndex(0, VarAddr{1, 0}); idx != -1 {
		t.Errorf("visibleIndex(0, 1.0) = %d, want -1 (not visible)", idx)
	}
	if vis := p.VisibleVars(-1); vis != nil {
		t.Error("VisibleVars(-1) should be nil")
	}
	if vis := p.VisibleVars(9); vis != nil {
		t.Error("VisibleVars(9) should be nil")
	}
}

func TestContourOf(t *testing.T) {
	p := testProgram()
	if c := p.ContourOf(0); c != 0 {
		t.Errorf("ContourOf(0) = %d", c)
	}
	if c := p.ContourOf(7); c != 0 {
		t.Errorf("ContourOf(7) = %d", c)
	}
	if c := p.ContourOf(8); c != 1 {
		t.Errorf("ContourOf(8) = %d", c)
	}
	if c := p.ContourOf(17); c != 1 {
		t.Errorf("ContourOf(17) = %d", c)
	}
	// Every instruction's recorded contour matches the derived one.
	for i, in := range p.Instrs {
		if p.ContourOf(i) != in.Contour {
			t.Errorf("instruction %d: derived contour %d, recorded %d", i, p.ContourOf(i), in.Contour)
		}
	}
}

func TestInstructionMix(t *testing.T) {
	mix := testProgram().InstructionMix()
	if mix[OpPushVar] != 5 || mix[OpPushConst] != 3 || mix[OpHalt] != 1 {
		t.Errorf("mix = %v", mix)
	}
}

func TestVarAddrString(t *testing.T) {
	if (VarAddr{3, 14}).String() != "3.14" {
		t.Errorf("VarAddr.String = %q", VarAddr{3, 14}.String())
	}
}

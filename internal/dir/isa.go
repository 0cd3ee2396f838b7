package dir

import (
	"errors"
	"fmt"
	"strings"
)

// Opcode enumerates DIR operations.
type Opcode uint8

// Stack-oriented opcodes (lowest semantic level).
const (
	// OpHalt stops the program.
	OpHalt Opcode = iota
	// OpPushConst pushes an immediate constant.
	OpPushConst
	// OpPushVar pushes the value of a scalar variable.
	OpPushVar
	// OpPushIndexed pops an index and pushes base[index].
	OpPushIndexed
	// OpStoreVar pops a value into a scalar variable.
	OpStoreVar
	// OpStoreIndexed pops a value then an index and stores base[index] = value.
	OpStoreIndexed
	// OpAdd through OpOr pop two values and push the result.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	// OpNeg and OpNot pop one value and push the result.
	OpNeg
	OpNot
	// OpJump transfers control to Target unconditionally.
	OpJump
	// OpJumpZero pops a value and transfers control to Target if it is zero.
	OpJumpZero
	// OpCall invokes procedure Proc with NArgs arguments taken from the stack.
	OpCall
	// OpReturn returns from the current procedure with no value.
	OpReturn
	// OpReturnValue pops a value and returns it from the current procedure.
	OpReturnValue
	// OpPrint pops a value and appends it to the program output.
	OpPrint
	// OpPop discards the top of the operand stack (used to drop the return
	// value of a procedure called purely for its effects).
	OpPop

	// Two-operand memory opcodes (middle semantic level, PDP-11 flavour).

	// OpMove stores operand 1 into operand 0.
	OpMove
	// OpAdd2 .. OpMod2 apply "operand0 = operand0 op operand1".
	OpAdd2
	OpSub2
	OpMul2
	OpDiv2
	OpMod2
	// OpPrintOperand prints operand 0 directly.
	OpPrintOperand

	// Three-operand and compound opcodes (high semantic level, System/360 RX
	// and beyond).

	// OpAdd3 .. OpMod3 apply "operand0 = operand1 op operand2".
	OpAdd3
	OpSub3
	OpMul3
	OpDiv3
	OpMod3
	// OpBrEq .. OpBrGe compare operand 0 with operand 1 and branch to Target
	// when the relation holds.
	OpBrEq
	OpBrNe
	OpBrLt
	OpBrLe
	OpBrGt
	OpBrGe

	opcodeCount // sentinel; keep last
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(opcodeCount)

var opcodeNames = [...]string{
	OpHalt: "HALT", OpPushConst: "PUSHC", OpPushVar: "PUSHV", OpPushIndexed: "PUSHX",
	OpStoreVar: "STV", OpStoreIndexed: "STX",
	OpAdd: "ADD", OpSub: "SUB", OpMul: "MUL", OpDiv: "DIV", OpMod: "MOD",
	OpEq: "EQ", OpNe: "NE", OpLt: "LT", OpLe: "LE", OpGt: "GT", OpGe: "GE",
	OpAnd: "AND", OpOr: "OR", OpNeg: "NEG", OpNot: "NOT",
	OpJump: "JMP", OpJumpZero: "JZ", OpCall: "CALL", OpReturn: "RET",
	OpReturnValue: "RETV", OpPrint: "PRINT", OpPop: "POP",
	OpMove: "MOV", OpAdd2: "ADD2", OpSub2: "SUB2", OpMul2: "MUL2", OpDiv2: "DIV2", OpMod2: "MOD2",
	OpPrintOperand: "PRTOP",
	OpAdd3:         "ADD3", OpSub3: "SUB3", OpMul3: "MUL3", OpDiv3: "DIV3", OpMod3: "MOD3",
	OpBrEq: "BREQ", OpBrNe: "BRNE", OpBrLt: "BRLT", OpBrLe: "BRLE", OpBrGt: "BRGT", OpBrGe: "BRGE",
}

// String returns the mnemonic.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("OP(%d)", int(op))
}

// Valid reports whether the opcode is defined.
func (op Opcode) Valid() bool { return op < opcodeCount }

// HasTarget reports whether the opcode carries a branch target.
func (op Opcode) HasTarget() bool {
	switch op {
	case OpJump, OpJumpZero, OpBrEq, OpBrNe, OpBrLt, OpBrLe, OpBrGt, OpBrGe:
		return true
	}
	return false
}

// IsCall reports whether the opcode is a procedure call.
func (op Opcode) IsCall() bool { return op == OpCall }

// IsBranchCompare reports whether the opcode is a compound compare-and-branch.
func (op Opcode) IsBranchCompare() bool {
	switch op {
	case OpBrEq, OpBrNe, OpBrLt, OpBrLe, OpBrGt, OpBrGe:
		return true
	}
	return false
}

// NumOperands returns how many explicit operands the opcode carries.
func (op Opcode) NumOperands() int {
	switch op {
	case OpPushConst, OpPushVar, OpPushIndexed, OpStoreVar, OpStoreIndexed, OpPrintOperand:
		return 1
	case OpMove, OpAdd2, OpSub2, OpMul2, OpDiv2, OpMod2,
		OpBrEq, OpBrNe, OpBrLt, OpBrLe, OpBrGt, OpBrGe:
		return 2
	case OpAdd3, OpSub3, OpMul3, OpDiv3, OpMod3:
		return 3
	default:
		return 0
	}
}

// AddrMode enumerates operand addressing modes.
type AddrMode uint8

const (
	// ModeImm is an immediate constant.
	ModeImm AddrMode = iota
	// ModeVar addresses a scalar variable (or array base) by lexical
	// (depth, offset) address.
	ModeVar

	addrModeCount
)

// NumAddrModes is the number of defined addressing modes.
const NumAddrModes = int(addrModeCount)

// String returns the mode's name.
func (m AddrMode) String() string {
	switch m {
	case ModeImm:
		return "imm"
	case ModeVar:
		return "var"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Valid reports whether the mode is defined.
func (m AddrMode) Valid() bool { return m < addrModeCount }

// VarAddr is a lexical machine address: the static nesting depth of the
// declaring contour and the slot offset within that contour's frame.  Binding
// names to VarAddrs at compile time is what removes the HLR's need for an
// associative memory.
type VarAddr struct {
	Depth  int
	Offset int
}

// String renders the address as "d.o".
func (a VarAddr) String() string { return fmt.Sprintf("%d.%d", a.Depth, a.Offset) }

// Operand is one instruction operand.
type Operand struct {
	Mode AddrMode
	Imm  int64   // value when Mode == ModeImm
	Addr VarAddr // address when Mode == ModeVar
}

// ImmOperand returns an immediate operand.
func ImmOperand(v int64) Operand { return Operand{Mode: ModeImm, Imm: v} }

// VarOperand returns a variable operand.
func VarOperand(depth, offset int) Operand {
	return Operand{Mode: ModeVar, Addr: VarAddr{Depth: depth, Offset: offset}}
}

// String renders the operand.
func (o Operand) String() string {
	switch o.Mode {
	case ModeImm:
		return fmt.Sprintf("#%d", o.Imm)
	case ModeVar:
		return o.Addr.String()
	default:
		return fmt.Sprintf("?%d", int(o.Mode))
	}
}

// Instruction is one DIR instruction.
type Instruction struct {
	Op       Opcode
	Operands []Operand
	// Target is the instruction index of the branch destination for opcodes
	// with HasTarget() == true.
	Target int
	// Proc and NArgs describe a call for OpCall.
	Proc  int
	NArgs int
	// Contour is the index of the contour (procedure) containing this
	// instruction; it drives the contextual encodings.
	Contour int
}

// String renders the instruction in assembler-like form.
func (in Instruction) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	for _, op := range in.Operands {
		b.WriteString(" ")
		b.WriteString(op.String())
	}
	if in.Op.HasTarget() {
		fmt.Fprintf(&b, " ->%d", in.Target)
	}
	if in.Op.IsCall() {
		fmt.Fprintf(&b, " proc%d/%d", in.Proc, in.NArgs)
	}
	return b.String()
}

// Proc describes one procedure of a DIR program.  Procedure 0 is the main
// program body.
type Proc struct {
	Name       string
	Entry      int // index of the procedure's first instruction
	NumParams  int
	FrameSlots int // frame size in value slots (parameters + locals + arrays)
	Depth      int // static nesting depth of the procedure's scope
}

// ContourVar describes one variable visible in a contour, in a canonical
// order, so contextual encodings can refer to variables by a small index.
type ContourVar struct {
	Addr VarAddr
	Size int64 // 1 for scalars, >1 for arrays
}

// Contour describes the name environment of one procedure, for the
// contextual encodings of §3.2.
type Contour struct {
	Parent int // parent contour index; contour 0 is its own parent
	// Locals are the storage symbols declared directly in this contour, in
	// declaration order.
	Locals []ContourVar
}

// Program is a complete DIR program.
type Program struct {
	Name     string
	Instrs   []Instruction
	Procs    []Proc
	Contours []Contour
	// Level records the semantic level the compiler emitted (a label for
	// reports; it does not affect execution).
	Level string
}

// Validation errors.
var (
	ErrNoInstructions = errors.New("dir: program has no instructions")
	ErrNoProcs        = errors.New("dir: program has no procedures")
)

// Validate checks structural invariants: opcode validity, operand counts and
// modes, branch targets, call targets and contour indices.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return ErrNoInstructions
	}
	if len(p.Procs) == 0 {
		return ErrNoProcs
	}
	if len(p.Contours) != len(p.Procs) {
		return fmt.Errorf("dir: %d contours for %d procedures", len(p.Contours), len(p.Procs))
	}
	for i, proc := range p.Procs {
		if proc.Entry < 0 || proc.Entry >= len(p.Instrs) {
			return fmt.Errorf("dir: procedure %d (%s) entry %d out of range", i, proc.Name, proc.Entry)
		}
		if proc.NumParams < 0 || proc.FrameSlots < proc.NumParams {
			return fmt.Errorf("dir: procedure %d (%s) has %d params but %d frame slots",
				i, proc.Name, proc.NumParams, proc.FrameSlots)
		}
	}
	for i, c := range p.Contours {
		if c.Parent < 0 || c.Parent >= len(p.Contours) {
			return fmt.Errorf("dir: contour %d parent %d out of range", i, c.Parent)
		}
	}
	for idx, in := range p.Instrs {
		if !in.Op.Valid() {
			return fmt.Errorf("dir: instruction %d has invalid opcode %d", idx, int(in.Op))
		}
		if want := in.Op.NumOperands(); len(in.Operands) != want {
			return fmt.Errorf("dir: instruction %d (%s) has %d operands, want %d", idx, in.Op, len(in.Operands), want)
		}
		for oi, op := range in.Operands {
			if !op.Mode.Valid() {
				return fmt.Errorf("dir: instruction %d operand %d has invalid mode %d", idx, oi, int(op.Mode))
			}
			if op.Mode == ModeVar && (op.Addr.Depth < 0 || op.Addr.Offset < 0) {
				return fmt.Errorf("dir: instruction %d operand %d has negative address %v", idx, oi, op.Addr)
			}
		}
		if in.Op.HasTarget() && (in.Target < 0 || in.Target >= len(p.Instrs)) {
			return fmt.Errorf("dir: instruction %d (%s) target %d out of range", idx, in.Op, in.Target)
		}
		if in.Op.IsCall() {
			if in.Proc < 0 || in.Proc >= len(p.Procs) {
				return fmt.Errorf("dir: instruction %d calls unknown procedure %d", idx, in.Proc)
			}
			if in.NArgs != p.Procs[in.Proc].NumParams {
				return fmt.Errorf("dir: instruction %d passes %d args to procedure %d which takes %d",
					idx, in.NArgs, in.Proc, p.Procs[in.Proc].NumParams)
			}
		}
		if in.Contour < 0 || in.Contour >= len(p.Contours) {
			return fmt.Errorf("dir: instruction %d contour %d out of range", idx, in.Contour)
		}
	}
	return nil
}

// Disassemble renders the whole program as text, one instruction per line,
// with procedure entry points annotated.
func (p *Program) Disassemble() string {
	entries := make(map[int][]string)
	for i, proc := range p.Procs {
		entries[proc.Entry] = append(entries[proc.Entry], fmt.Sprintf("%s (proc %d)", proc.Name, i))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s, level %s, %d instructions, %d procedures\n",
		p.Name, p.Level, len(p.Instrs), len(p.Procs))
	for i, in := range p.Instrs {
		for _, name := range entries[i] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "%5d  %s\n", i, in.String())
	}
	return b.String()
}

// VisibleVars returns the variables visible from contour c, outermost
// contour's declarations first, in a canonical order shared by the encoder
// and decoder of the contextual representations.
func (p *Program) VisibleVars(c int) []ContourVar {
	if c < 0 || c >= len(p.Contours) {
		return nil
	}
	// Collect the chain root-first.
	var chain []int
	for cur := c; ; cur = p.Contours[cur].Parent {
		chain = append(chain, cur)
		if cur == p.Contours[cur].Parent {
			break
		}
	}
	var out []ContourVar
	for i := len(chain) - 1; i >= 0; i-- {
		out = append(out, p.Contours[chain[i]].Locals...)
	}
	return out
}

// InstructionMix returns the count of each opcode in the static program, a
// basic statistic for the encoding studies.
func (p *Program) InstructionMix() map[Opcode]int {
	mix := make(map[Opcode]int)
	for _, in := range p.Instrs {
		mix[in.Op]++
	}
	return mix
}

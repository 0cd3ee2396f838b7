package psder

import (
	"errors"
	"fmt"
	"strings"
)

// ShortOp enumerates the IU2 short-format operations.
type ShortOp uint8

const (
	// OpPush pushes a value onto the operand stack.  The addressing flavour
	// (immediate / direct / stack) is given by the Mode field.
	OpPush ShortOp = iota
	// OpPop discards the top of the operand stack.
	OpPop
	// OpCall transfers control to a semantic routine (expressed in
	// long-format instructions and executed by IU1).
	OpCall
	// OpInterp exercises the DTB: its operand is the address of the next DIR
	// instruction, either immediate or taken from the operand stack.
	OpInterp

	shortOpCount
)

// String returns the mnemonic.
func (op ShortOp) String() string {
	switch op {
	case OpPush:
		return "PUSH"
	case OpPop:
		return "POP"
	case OpCall:
		return "CALL"
	case OpInterp:
		return "INTERP"
	default:
		return fmt.Sprintf("SHORT(%d)", int(op))
	}
}

// Valid reports whether the short opcode is defined.
func (op ShortOp) Valid() bool { return op < shortOpCount }

// Mode is the operand flavour of a short-format instruction.
type Mode uint8

const (
	// ModeImm supplies the operand immediately.
	ModeImm Mode = iota
	// ModeStack takes the operand from the operand stack (used by INTERP
	// when the next DIR address has been computed).
	ModeStack

	modeCount
)

// String returns the mode's name.
func (m Mode) String() string {
	switch m {
	case ModeImm:
		return "imm"
	case ModeStack:
		return "stack"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Valid reports whether the mode is defined.
func (m Mode) Valid() bool { return m < modeCount }

// RoutineID identifies a semantic routine in the IU1 routine library.
type RoutineID uint8

// Semantic routines.  Each corresponds to a procedure written in the UHM's
// long-format machine language, resident in level-1 memory.
const (
	RoutineLoadVar RoutineID = iota
	RoutineLoadIndexed
	RoutineStoreVar
	RoutineStoreIndexed
	RoutineAdd
	RoutineSub
	RoutineMul
	RoutineDiv
	RoutineMod
	RoutineEq
	RoutineNe
	RoutineLt
	RoutineLe
	RoutineGt
	RoutineGe
	RoutineAnd
	RoutineOr
	RoutineNeg
	RoutineNot
	RoutineSelectIfZero
	RoutineSelectEq
	RoutineSelectNe
	RoutineSelectLt
	RoutineSelectLe
	RoutineSelectGt
	RoutineSelectGe
	RoutineCall
	RoutineReturn
	RoutineReturnValue
	RoutinePrint
	RoutineHalt

	routineCount
)

// NumRoutines is the number of semantic routines in the library.
const NumRoutines = int(routineCount)

var routineNames = [...]string{
	RoutineLoadVar: "load-var", RoutineLoadIndexed: "load-indexed",
	RoutineStoreVar: "store-var", RoutineStoreIndexed: "store-indexed",
	RoutineAdd: "add", RoutineSub: "sub", RoutineMul: "mul", RoutineDiv: "div", RoutineMod: "mod",
	RoutineEq: "eq", RoutineNe: "ne", RoutineLt: "lt", RoutineLe: "le", RoutineGt: "gt", RoutineGe: "ge",
	RoutineAnd: "and", RoutineOr: "or", RoutineNeg: "neg", RoutineNot: "not",
	RoutineSelectIfZero: "select-if-zero",
	RoutineSelectEq:     "select-eq", RoutineSelectNe: "select-ne", RoutineSelectLt: "select-lt",
	RoutineSelectLe: "select-le", RoutineSelectGt: "select-gt", RoutineSelectGe: "select-ge",
	RoutineCall: "call", RoutineReturn: "return", RoutineReturnValue: "return-value",
	RoutinePrint: "print", RoutineHalt: "halt",
}

// String returns the routine's name.
func (r RoutineID) String() string {
	if int(r) < len(routineNames) && routineNames[r] != "" {
		return routineNames[r]
	}
	return fmt.Sprintf("routine(%d)", int(r))
}

// Valid reports whether the routine is defined.
func (r RoutineID) Valid() bool { return r < routineCount }

// BaseCost returns the routine's nominal cost in long-format instruction
// executions (level-1 cycles).  Dynamic extras — static-link hops, argument
// copies — are added by the host machine when the routine runs.  These are
// the building blocks of the paper's parameter x.
func (r RoutineID) BaseCost() int {
	switch r {
	case RoutineLoadVar, RoutineStoreVar:
		return 3
	case RoutineLoadIndexed, RoutineStoreIndexed:
		return 5
	case RoutineAdd, RoutineSub, RoutineEq, RoutineNe, RoutineLt, RoutineLe,
		RoutineGt, RoutineGe, RoutineAnd, RoutineOr, RoutineNeg, RoutineNot:
		return 2
	case RoutineMul:
		return 4
	case RoutineDiv, RoutineMod:
		return 6
	case RoutineSelectIfZero, RoutineSelectEq, RoutineSelectNe, RoutineSelectLt,
		RoutineSelectLe, RoutineSelectGt, RoutineSelectGe:
		return 3
	case RoutineCall:
		return 8
	case RoutineReturn, RoutineReturnValue:
		return 5
	case RoutinePrint:
		return 2
	case RoutineHalt:
		return 1
	default:
		return 1
	}
}

// Interpreter size accounting: the semantic routines and the decode/dispatch
// code occupy level-1 memory.  RoutineFootprintWords is the nominal size of
// one routine in long-format words; it feeds the interpreter-size axis of
// Figure 1.
const RoutineFootprintWords = 16

// LibraryFootprintWords returns the level-1 footprint of the whole semantic
// routine library in words.
func LibraryFootprintWords() int { return NumRoutines * RoutineFootprintWords }

// Instr is one short-format instruction.
type Instr struct {
	Op   ShortOp
	Mode Mode
	// Arg is the immediate operand: a value for PUSH, a routine for CALL
	// (stored as the routine ID), or the next DIR instruction index for
	// INTERP in immediate mode.
	Arg int32
}

// Push returns a PUSH-immediate instruction.
func Push(v int32) Instr { return Instr{Op: OpPush, Mode: ModeImm, Arg: v} }

// Pop returns a POP instruction.
func Pop() Instr { return Instr{Op: OpPop} }

// Call returns a CALL instruction naming a semantic routine.
func Call(r RoutineID) Instr { return Instr{Op: OpCall, Mode: ModeImm, Arg: int32(r)} }

// InterpImm returns an INTERP instruction whose next-DIR-address is known
// immediately (sequential successor or unconditional branch target).
func InterpImm(next int) Instr { return Instr{Op: OpInterp, Mode: ModeImm, Arg: int32(next)} }

// InterpStack returns an INTERP instruction that takes the next DIR address
// from the operand stack.
func InterpStack() Instr { return Instr{Op: OpInterp, Mode: ModeStack} }

// Routine returns the semantic routine named by a CALL instruction.
func (i Instr) Routine() RoutineID { return RoutineID(i.Arg) }

// String renders the instruction.
func (i Instr) String() string {
	switch i.Op {
	case OpPush:
		return fmt.Sprintf("PUSH #%d", i.Arg)
	case OpPop:
		return "POP"
	case OpCall:
		return fmt.Sprintf("CALL %s", i.Routine())
	case OpInterp:
		if i.Mode == ModeStack {
			return "INTERP (stack)"
		}
		return fmt.Sprintf("INTERP ->%d", i.Arg)
	default:
		return fmt.Sprintf("%s #%d", i.Op, i.Arg)
	}
}

// Sequence is the PSDER translation of one DIR instruction.
type Sequence []Instr

// String renders the sequence on one line.
func (s Sequence) String() string {
	parts := make([]string, len(s))
	for i, in := range s {
		parts[i] = in.String()
	}
	return strings.Join(parts, "; ")
}

// Words returns the sequence length in buffer-array words (one word per
// short-format instruction) — the paper's parameter s1 for this instruction.
func (s Sequence) Words() int { return len(s) }

// Calls returns the number of semantic-routine calls in the sequence.
func (s Sequence) Calls() int {
	n := 0
	for _, in := range s {
		if in.Op == OpCall {
			n++
		}
	}
	return n
}

// BaseSemanticCost returns the sum of the base costs of the routines called
// plus one cycle per short-format instruction issued — the static estimate of
// the paper's parameter x for this instruction.
func (s Sequence) BaseSemanticCost() int {
	cost := 0
	for _, in := range s {
		cost++
		if in.Op == OpCall {
			cost += in.Routine().BaseCost()
		}
	}
	return cost
}

// Buffer-array word layout: op(4) | mode(4) | arg(24), arg a signed 24-bit
// two's-complement field.  Validate holds every argument to that field, so
// each short-format instruction fits one word.
const (
	argBits = 24
	argMax  = 1<<(argBits-1) - 1
	argMin  = -(1 << (argBits - 1))
)

// Validation errors.
var (
	// ErrArgRange is returned when an argument does not fit the 24-bit word
	// field.
	ErrArgRange = errors.New("psder: argument out of 24-bit range")
	// ErrNoInterp is returned when a sequence does not end with INTERP or a
	// halt.
	ErrNoInterp = errors.New("psder: sequence must end with INTERP or a halt call")
)

// Validate checks that the sequence is well formed: non-empty, every
// instruction valid, and terminated by an INTERP (or by a call to the halt
// routine, which never resumes).
func (s Sequence) Validate() error {
	if len(s) == 0 {
		return errors.New("psder: empty sequence")
	}
	for i, in := range s {
		if !in.Op.Valid() {
			return fmt.Errorf("psder: instruction %d has invalid opcode %d", i, int(in.Op))
		}
		if !in.Mode.Valid() {
			return fmt.Errorf("psder: instruction %d has invalid mode %d", i, int(in.Mode))
		}
		if in.Op == OpCall && !in.Routine().Valid() {
			return fmt.Errorf("psder: instruction %d calls unknown routine %d", i, in.Arg)
		}
		if in.Arg > argMax || in.Arg < argMin {
			return fmt.Errorf("%w: instruction %d arg %d", ErrArgRange, i, in.Arg)
		}
	}
	last := s[len(s)-1]
	if last.Op == OpInterp {
		return nil
	}
	if last.Op == OpCall && last.Routine() == RoutineHalt {
		return nil
	}
	return ErrNoInterp
}

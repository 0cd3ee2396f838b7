package dir

// Closure compilation: the most tightly bound executable form of a DIR
// program this reproduction supports, one step beyond the fully expanded
// PSDER representation of §3.1.  Compile lowers a program into a flat array
// of direct-threaded Go closures in which every piece of binding work an
// interpreter repeats per execution has been performed once, at compile
// time:
//
//   - operand fields are resolved: immediates are baked into the closure,
//     variable references are reduced to a static-link hop count plus a
//     frame offset (the up-level search of frameAt is gone);
//   - branch targets and fall-through successors are resolved to compiled-op
//     indices, so dispatch is "return the next index" rather than a switch
//     on the opcode;
//   - common opcode pairs are fused into superinstructions (push+arith,
//     push+store, compare+branch), halving dispatch and fetch on the hottest
//     static patterns.
//
// The compiled form trades space for binding, continuing the Figure 1
// trajectory: it is the largest representation of all (FootprintWords) and
// the cheapest to execute.  internal/sim exposes it as the fifth machine
// organisation (sim.Compiled).
//
// Safety: the compiler resolves up-level addressing from the static contour
// of each instruction, so it assumes contour-consistent control flow —
// control enters a procedure body only through OpCall, as every program
// emitted by internal/compile does.  Each up-level access still verifies at
// run time that the frame reached declares the addressed depth, so a
// violation surfaces as an error, never as silent corruption.

import (
	"errors"
	"fmt"
)

// Compilation and compiled-execution errors.
var (
	// ErrFusedTarget is returned when control transfers into the middle of a
	// fused superinstruction (impossible for programs compiled by Compile
	// itself, since join points are never fused over).
	ErrFusedTarget = errors.New("dir: control transfer into a fused superinstruction")
)

// compiledFn is one direct-threaded closure.  It executes the semantics of
// one (or, fused, two) DIR instructions against the machine state and
// returns the compiled-op index of its successor, or haltIndex when the
// program finished.
type compiledFn func(m *MachineState, maxDepth int) (int, error)

// haltIndex is the successor index meaning "the program halted".
const haltIndex = -1

// compiledOp is one slot of the compiled program.
type compiledOp struct {
	fn compiledFn
	// instrs is the number of DIR instructions this op retires per execution
	// (2 for a fused superinstruction, else 1), keeping dynamic instruction
	// counts identical to every interpreted organisation.
	instrs int64
	// cost is the op's native semantic cost in level-1 cycles, a compile-time
	// constant (see nativeCost).
	cost int64
	// pc is the DIR index of the op's first instruction (diagnostics).
	pc int
}

// CompiledOpWords is the nominal level-1 footprint of one compiled op in
// words.  Native closure code is bulkier than the PSDER word stream it
// replaces (roughly the long-format expansion of the semantic work plus the
// resolved operands), which is exactly the paper's size-versus-binding
// trade-off carried one step further than the expanded machine language.
const CompiledOpWords = 6

// CompiledRunStats is the cost accounting of one compiled run.
type CompiledRunStats struct {
	// Instructions is the number of DIR instructions retired.
	Instructions int64
	// SemanticCost is the total native semantic cost in level-1 cycles.
	SemanticCost int64
	// Fetches is the number of compiled ops dispatched — the native
	// instruction fetches, one per op regardless of fusion width.
	Fetches int64
}

// CompiledProgram is a DIR program lowered to direct-threaded closures.  It
// is immutable after Compile and safe to share between goroutines; all
// mutable run-time state lives in the MachineState passed to Run.
type CompiledProgram struct {
	prog *Program
	ops  []compiledOp
	// pcToOp maps a DIR instruction index to its compiled-op index, or to
	// fusedSlot for the swallowed second half of a superinstruction.
	pcToOp []int
	entry  int
	fused  int
}

const fusedSlot = -1

// Program returns the source program.
func (c *CompiledProgram) Program() *Program { return c.prog }

// NumOps returns the number of compiled ops (≤ the instruction count; the
// difference is the number of fused pairs).
func (c *CompiledProgram) NumOps() int { return len(c.ops) }

// FusedPairs returns how many opcode pairs were fused into superinstructions.
func (c *CompiledProgram) FusedPairs() int { return c.fused }

// FootprintWords returns the nominal level-1 footprint of the compiled code
// in words — the static-size axis of Figure 1 for this organisation.
func (c *CompiledProgram) FootprintWords() int { return len(c.ops) * CompiledOpWords }

// Compile lowers the program into direct-threaded closures.  The program is
// validated first; the returned CompiledProgram is immutable.
func Compile(p *Program) (*CompiledProgram, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &CompiledProgram{prog: p, pcToOp: make([]int, len(p.Instrs))}

	// Join points: every pc that control can reach other than by falling
	// through from its predecessor.  A fused pair must not span one, or a
	// branch or return could land inside the superinstruction.
	join := make([]bool, len(p.Instrs))
	for _, proc := range p.Procs {
		join[proc.Entry] = true
	}
	for pc, in := range p.Instrs {
		if in.Op.HasTarget() {
			join[in.Target] = true
		}
		if in.Op.IsCall() && pc+1 < len(p.Instrs) {
			join[pc+1] = true // return address
		}
	}

	// First pass: assign op indices, deciding fusion greedily left to right.
	for pc := 0; pc < len(p.Instrs); {
		c.pcToOp[pc] = len(c.ops)
		width := 1
		if pc+1 < len(p.Instrs) && !join[pc+1] && fusable(p.Instrs[pc], p.Instrs[pc+1]) {
			width = 2
			c.pcToOp[pc+1] = fusedSlot
			c.fused++
		}
		c.ops = append(c.ops, compiledOp{pc: pc, instrs: int64(width)})
		pc += width
	}
	c.entry = c.pcToOp[p.Procs[0].Entry]

	// Second pass: build the closures, now that every successor's compiled
	// index is known.
	for i := range c.ops {
		op := &c.ops[i]
		var err error
		if op.instrs == 2 {
			op.fn, err = c.compileFused(op.pc)
			op.cost = c.nativeCost(p.Instrs[op.pc]) + c.nativeCost(p.Instrs[op.pc+1])
		} else {
			op.fn, err = c.compileOne(op.pc)
			op.cost = c.nativeCost(p.Instrs[op.pc])
		}
		if err != nil {
			return nil, fmt.Errorf("dir: compile pc %d (%s): %w", op.pc, p.Instrs[op.pc], err)
		}
	}
	return c, nil
}

// fusable reports whether the pair (a, b) matches a superinstruction
// pattern.  The patterns cover the hottest static sequences the compiler
// emits at the stack level: operand pushes feeding a binary operation or a
// store, paired pushes, and a comparison feeding a conditional branch.
func fusable(a, b Instruction) bool {
	switch a.Op {
	case OpPushConst, OpPushVar:
		switch {
		case b.Op >= OpAdd && b.Op <= OpOr:
			return true
		case b.Op == OpStoreVar:
			return true
		case b.Op == OpPushVar && a.Op == OpPushVar:
			return true
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return b.Op == OpJumpZero
	}
	return false
}

// succ returns the compiled index of the instruction at pc, which must be a
// join point or a fall-through successor assigned an op of its own.
func (c *CompiledProgram) succ(pc int) (int, error) {
	if pc < 0 || pc >= len(c.pcToOp) {
		return 0, fmt.Errorf("dir: successor %d out of range", pc)
	}
	if c.pcToOp[pc] == fusedSlot {
		return 0, fmt.Errorf("%w: pc %d", ErrFusedTarget, pc)
	}
	return c.pcToOp[pc], nil
}

// dynSucc resolves a successor whose pc is only known at run time (return
// addresses popped from activation records).
func (c *CompiledProgram) dynSucc(pc int) (int, error) {
	if pc < 0 || pc >= len(c.pcToOp) {
		return 0, fmt.Errorf("dir: return to out-of-range pc %d", pc)
	}
	if idx := c.pcToOp[pc]; idx != fusedSlot {
		return idx, nil
	}
	return 0, fmt.Errorf("%w: pc %d", ErrFusedTarget, pc)
}

// hopsOf returns the number of static-link hops from the frame executing an
// instruction of contour ctr to the frame declaring addr — a compile-time
// constant, because the executing frame's procedure is the instruction's
// contour.
func (c *CompiledProgram) hopsOf(ctr int, addr VarAddr) int {
	hops := c.prog.Procs[ctr].Depth - addr.Depth
	if hops < 0 {
		hops = 0
	}
	return hops
}

// frameUp walks exactly hops static links and verifies the frame reached
// declares scope depth want (the contour-consistency check).
func (m *MachineState) frameUp(hops, want int) (*Frame, error) {
	f := m.current
	for ; hops > 0 && f != nil; hops-- {
		f = f.Static
	}
	if f == nil || m.prog.Procs[f.Proc].Depth != want {
		return nil, fmt.Errorf("%w: depth %d", ErrNoActivation, want)
	}
	return f, nil
}

// loadUp reads slot addr.Offset+index of the frame hops static links up.
func (m *MachineState) loadUp(hops int, addr VarAddr, index int64) (int64, error) {
	f, err := m.frameUp(hops, addr.Depth)
	if err != nil {
		return 0, err
	}
	slot := int64(addr.Offset) + index
	if slot < 0 || slot >= int64(len(f.Slots)) {
		return 0, fmt.Errorf("%w: slot %d of %d", ErrAddressRange, slot, len(f.Slots))
	}
	return f.Slots[slot], nil
}

// storeUp writes slot addr.Offset+index of the frame hops static links up.
func (m *MachineState) storeUp(hops int, addr VarAddr, index int64, v int64) error {
	f, err := m.frameUp(hops, addr.Depth)
	if err != nil {
		return err
	}
	slot := int64(addr.Offset) + index
	if slot < 0 || slot >= int64(len(f.Slots)) {
		return fmt.Errorf("%w: slot %d of %d", ErrAddressRange, slot, len(f.Slots))
	}
	f.Slots[slot] = v
	return nil
}

// valueFn compiles an operand into a closure producing its value, with the
// addressing mode and static-link distance resolved now.
func (c *CompiledProgram) valueFn(ctr int, op Operand) (func(m *MachineState) (int64, error), error) {
	switch op.Mode {
	case ModeImm:
		v := op.Imm
		return func(m *MachineState) (int64, error) { return v, nil }, nil
	case ModeVar:
		hops, addr := c.hopsOf(ctr, op.Addr), op.Addr
		return func(m *MachineState) (int64, error) { return m.loadUp(hops, addr, 0) }, nil
	default:
		return nil, fmt.Errorf("dir: unsupported operand mode %v", op.Mode)
	}
}

// arithFn specialises a stack-level arithmetic/comparison/boolean opcode
// into a two-value function, hoisting ApplyArith's dispatch switch out of
// the execution loop.
func arithFn(op Opcode) (func(a, b int64) (int64, error), error) {
	b2i := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return func(a, b int64) (int64, error) { return a + b, nil }, nil
	case OpSub:
		return func(a, b int64) (int64, error) { return a - b, nil }, nil
	case OpMul:
		return func(a, b int64) (int64, error) { return a * b, nil }, nil
	case OpDiv:
		return func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, ErrDivideByZero
			}
			return a / b, nil
		}, nil
	case OpMod:
		return func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, ErrDivideByZero
			}
			return a % b, nil
		}, nil
	case OpEq:
		return func(a, b int64) (int64, error) { return b2i(a == b), nil }, nil
	case OpNe:
		return func(a, b int64) (int64, error) { return b2i(a != b), nil }, nil
	case OpLt:
		return func(a, b int64) (int64, error) { return b2i(a < b), nil }, nil
	case OpLe:
		return func(a, b int64) (int64, error) { return b2i(a <= b), nil }, nil
	case OpGt:
		return func(a, b int64) (int64, error) { return b2i(a > b), nil }, nil
	case OpGe:
		return func(a, b int64) (int64, error) { return b2i(a >= b), nil }, nil
	case OpAnd:
		return func(a, b int64) (int64, error) { return b2i(a != 0 && b != 0), nil }, nil
	case OpOr:
		return func(a, b int64) (int64, error) { return b2i(a != 0 || b != 0), nil }, nil
	default:
		return nil, fmt.Errorf("dir: %v is not an arithmetic opcode", op)
	}
}

// compileOne builds the closure for the single instruction at pc.
func (c *CompiledProgram) compileOne(pc int) (compiledFn, error) {
	in := c.prog.Instrs[pc]
	// next is the fall-through successor, resolved now.  Opcodes that never
	// fall through (halt, jump, return) ignore it; for everything else a
	// missing successor is a compile-time error, mirroring the reference
	// interpreter's out-of-range pc error.
	next := haltIndex
	if !isTerminal(in.Op) {
		if pc+1 >= len(c.prog.Instrs) {
			return nil, fmt.Errorf("dir: instruction falls off the end of the program")
		}
		n, err := c.succ(pc + 1)
		if err != nil {
			return nil, err
		}
		next = n
	}

	switch in.Op {
	case OpHalt:
		return func(m *MachineState, _ int) (int, error) { return haltIndex, nil }, nil

	case OpPushConst:
		v := in.Operands[0].Imm
		return func(m *MachineState, _ int) (int, error) {
			m.Push(v)
			return next, nil
		}, nil

	case OpPushVar:
		hops, addr := c.hopsOf(in.Contour, in.Operands[0].Addr), in.Operands[0].Addr
		return func(m *MachineState, _ int) (int, error) {
			v, err := m.loadUp(hops, addr, 0)
			if err != nil {
				return 0, err
			}
			m.Push(v)
			return next, nil
		}, nil

	case OpPushIndexed:
		hops, addr := c.hopsOf(in.Contour, in.Operands[0].Addr), in.Operands[0].Addr
		return func(m *MachineState, _ int) (int, error) {
			idx, err := m.Pop()
			if err != nil {
				return 0, err
			}
			v, err := m.loadUp(hops, addr, idx)
			if err != nil {
				return 0, err
			}
			m.Push(v)
			return next, nil
		}, nil

	case OpStoreVar:
		hops, addr := c.hopsOf(in.Contour, in.Operands[0].Addr), in.Operands[0].Addr
		return func(m *MachineState, _ int) (int, error) {
			v, err := m.Pop()
			if err != nil {
				return 0, err
			}
			if err := m.storeUp(hops, addr, 0, v); err != nil {
				return 0, err
			}
			return next, nil
		}, nil

	case OpStoreIndexed:
		hops, addr := c.hopsOf(in.Contour, in.Operands[0].Addr), in.Operands[0].Addr
		return func(m *MachineState, _ int) (int, error) {
			v, err := m.Pop()
			if err != nil {
				return 0, err
			}
			idx, err := m.Pop()
			if err != nil {
				return 0, err
			}
			if err := m.storeUp(hops, addr, idx, v); err != nil {
				return 0, err
			}
			return next, nil
		}, nil

	case OpPop:
		return func(m *MachineState, _ int) (int, error) {
			if _, err := m.Pop(); err != nil {
				return 0, err
			}
			return next, nil
		}, nil

	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr:
		fn, err := arithFn(in.Op)
		if err != nil {
			return nil, err
		}
		return func(m *MachineState, _ int) (int, error) {
			b, err := m.Pop()
			if err != nil {
				return 0, err
			}
			a, err := m.Pop()
			if err != nil {
				return 0, err
			}
			v, err := fn(a, b)
			if err != nil {
				return 0, err
			}
			m.Push(v)
			return next, nil
		}, nil

	case OpNeg:
		return func(m *MachineState, _ int) (int, error) {
			a, err := m.Pop()
			if err != nil {
				return 0, err
			}
			m.Push(-a)
			return next, nil
		}, nil

	case OpNot:
		return func(m *MachineState, _ int) (int, error) {
			a, err := m.Pop()
			if err != nil {
				return 0, err
			}
			if a == 0 {
				m.Push(1)
			} else {
				m.Push(0)
			}
			return next, nil
		}, nil

	case OpJump:
		target, err := c.succ(in.Target)
		if err != nil {
			return nil, err
		}
		return func(m *MachineState, _ int) (int, error) { return target, nil }, nil

	case OpJumpZero:
		target, err := c.succ(in.Target)
		if err != nil {
			return nil, err
		}
		return func(m *MachineState, _ int) (int, error) {
			v, err := m.Pop()
			if err != nil {
				return 0, err
			}
			if v == 0 {
				return target, nil
			}
			return next, nil
		}, nil

	case OpCall:
		proc, nargs := in.Proc, in.NArgs
		entry, err := c.succ(c.prog.Procs[proc].Entry)
		if err != nil {
			return nil, err
		}
		retPC := pc + 1
		return func(m *MachineState, maxDepth int) (int, error) {
			if _, err := m.Call(proc, nargs, retPC, maxDepth); err != nil {
				return 0, err
			}
			return entry, nil
		}, nil

	case OpReturn:
		return func(m *MachineState, _ int) (int, error) {
			ret, ok := m.Return(0)
			if !ok {
				return haltIndex, nil
			}
			return c.dynSucc(ret)
		}, nil

	case OpReturnValue:
		return func(m *MachineState, _ int) (int, error) {
			v, err := m.Pop()
			if err != nil {
				return 0, err
			}
			ret, ok := m.Return(v)
			if !ok {
				return haltIndex, nil
			}
			return c.dynSucc(ret)
		}, nil

	case OpPrint:
		return func(m *MachineState, _ int) (int, error) {
			v, err := m.Pop()
			if err != nil {
				return 0, err
			}
			m.Print(v)
			return next, nil
		}, nil

	case OpPrintOperand:
		val, err := c.valueFn(in.Contour, in.Operands[0])
		if err != nil {
			return nil, err
		}
		return func(m *MachineState, _ int) (int, error) {
			v, err := val(m)
			if err != nil {
				return 0, err
			}
			m.Print(v)
			return next, nil
		}, nil

	case OpMove:
		hops, addr := c.hopsOf(in.Contour, in.Operands[0].Addr), in.Operands[0].Addr
		src, err := c.valueFn(in.Contour, in.Operands[1])
		if err != nil {
			return nil, err
		}
		return func(m *MachineState, _ int) (int, error) {
			v, err := src(m)
			if err != nil {
				return 0, err
			}
			if err := m.storeUp(hops, addr, 0, v); err != nil {
				return 0, err
			}
			return next, nil
		}, nil

	case OpAdd2, OpSub2, OpMul2, OpDiv2, OpMod2:
		hops, addr := c.hopsOf(in.Contour, in.Operands[0].Addr), in.Operands[0].Addr
		src, err := c.valueFn(in.Contour, in.Operands[1])
		if err != nil {
			return nil, err
		}
		fn, err := arithFn(twoOpBase(in.Op))
		if err != nil {
			return nil, err
		}
		return func(m *MachineState, _ int) (int, error) {
			dst, err := m.loadUp(hops, addr, 0)
			if err != nil {
				return 0, err
			}
			s, err := src(m)
			if err != nil {
				return 0, err
			}
			v, err := fn(dst, s)
			if err != nil {
				return 0, err
			}
			if err := m.storeUp(hops, addr, 0, v); err != nil {
				return 0, err
			}
			return next, nil
		}, nil

	case OpAdd3, OpSub3, OpMul3, OpDiv3, OpMod3:
		hops, addr := c.hopsOf(in.Contour, in.Operands[0].Addr), in.Operands[0].Addr
		srcA, err := c.valueFn(in.Contour, in.Operands[1])
		if err != nil {
			return nil, err
		}
		srcB, err := c.valueFn(in.Contour, in.Operands[2])
		if err != nil {
			return nil, err
		}
		fn, err := arithFn(threeOpBase(in.Op))
		if err != nil {
			return nil, err
		}
		return func(m *MachineState, _ int) (int, error) {
			a, err := srcA(m)
			if err != nil {
				return 0, err
			}
			b, err := srcB(m)
			if err != nil {
				return 0, err
			}
			v, err := fn(a, b)
			if err != nil {
				return 0, err
			}
			if err := m.storeUp(hops, addr, 0, v); err != nil {
				return 0, err
			}
			return next, nil
		}, nil

	case OpBrEq, OpBrNe, OpBrLt, OpBrLe, OpBrGt, OpBrGe:
		target, err := c.succ(in.Target)
		if err != nil {
			return nil, err
		}
		srcA, err := c.valueFn(in.Contour, in.Operands[0])
		if err != nil {
			return nil, err
		}
		srcB, err := c.valueFn(in.Contour, in.Operands[1])
		if err != nil {
			return nil, err
		}
		op := in.Op
		return func(m *MachineState, _ int) (int, error) {
			a, err := srcA(m)
			if err != nil {
				return 0, err
			}
			b, err := srcB(m)
			if err != nil {
				return 0, err
			}
			taken, err := CompareBranch(op, a, b)
			if err != nil {
				return 0, err
			}
			if taken {
				return target, nil
			}
			return next, nil
		}, nil

	default:
		return nil, fmt.Errorf("dir: unimplemented opcode %v", in.Op)
	}
}

// compileFused builds one superinstruction closure for the fusable pair at
// (pc, pc+1).  Both constituent instructions always execute (the patterns
// contain no internal control flow), so retiring both is exact.
func (c *CompiledProgram) compileFused(pc int) (compiledFn, error) {
	a, b := c.prog.Instrs[pc], c.prog.Instrs[pc+1]
	// Every fused pattern can fall through, so the successor must exist.
	if pc+2 >= len(c.prog.Instrs) {
		return nil, fmt.Errorf("dir: instruction falls off the end of the program")
	}
	next, err := c.succ(pc + 2)
	if err != nil {
		return nil, err
	}

	// Comparison feeding a conditional branch: pop both operands, branch on
	// the (inverted) relation without materialising the boolean.
	if b.Op == OpJumpZero {
		target, err := c.succ(b.Target)
		if err != nil {
			return nil, err
		}
		fn, err := arithFn(a.Op)
		if err != nil {
			return nil, err
		}
		return func(m *MachineState, _ int) (int, error) {
			y, err := m.Pop()
			if err != nil {
				return 0, err
			}
			x, err := m.Pop()
			if err != nil {
				return 0, err
			}
			v, err := fn(x, y)
			if err != nil {
				return 0, err
			}
			if v == 0 {
				return target, nil
			}
			return next, nil
		}, nil
	}

	// The remaining patterns begin with a push; compile its value producer.
	val, err := c.valueFn(a.Contour, a.Operands[0])
	if err != nil {
		return nil, err
	}

	switch {
	case b.Op >= OpAdd && b.Op <= OpOr:
		// push v; binary — the pushed value is the right-hand operand.
		fn, err := arithFn(b.Op)
		if err != nil {
			return nil, err
		}
		return func(m *MachineState, _ int) (int, error) {
			y, err := val(m)
			if err != nil {
				return 0, err
			}
			x, err := m.Pop()
			if err != nil {
				return 0, err
			}
			v, err := fn(x, y)
			if err != nil {
				return 0, err
			}
			m.Push(v)
			return next, nil
		}, nil

	case b.Op == OpStoreVar:
		// push v; store — a register-style move with no stack traffic.
		hops, addr := c.hopsOf(b.Contour, b.Operands[0].Addr), b.Operands[0].Addr
		return func(m *MachineState, _ int) (int, error) {
			v, err := val(m)
			if err != nil {
				return 0, err
			}
			if err := m.storeUp(hops, addr, 0, v); err != nil {
				return 0, err
			}
			return next, nil
		}, nil

	case b.Op == OpPushVar:
		// push; push — one dispatch for two operand pushes.
		hops, addr := c.hopsOf(b.Contour, b.Operands[0].Addr), b.Operands[0].Addr
		return func(m *MachineState, _ int) (int, error) {
			v1, err := val(m)
			if err != nil {
				return 0, err
			}
			v2, err := m.loadUp(hops, addr, 0)
			if err != nil {
				return 0, err
			}
			m.Push(v1)
			m.Push(v2)
			return next, nil
		}, nil
	}
	return nil, fmt.Errorf("dir: pair (%s, %s) is not fusable", a.Op, b.Op)
}

// isTerminal reports whether the opcode never falls through to pc+1.
func isTerminal(op Opcode) bool {
	switch op {
	case OpHalt, OpJump, OpReturn, OpReturnValue:
		return true
	}
	return false
}

// nativeCost is the compile-time-constant semantic cost of one DIR
// instruction in the compiled organisation, in level-1 cycles.  It mirrors
// the semantic-routine base costs the host machine charges (internal/psder),
// with the IU2 issue overhead and the operand/address binding work compiled
// away; only the irreducible semantic work — and the static-link walks that
// survive into the native code — remains.  Deterministic by construction, so
// replayed runs report identical cycle counts.
func (c *CompiledProgram) nativeCost(in Instruction) int64 {
	hops := func(i int) int64 {
		op := in.Operands[i]
		if op.Mode != ModeVar {
			return 0
		}
		return int64(c.hopsOf(in.Contour, op.Addr))
	}
	// operand is the cost of evaluating operand i: free for an immediate,
	// one access plus the static-link walk for a variable.
	operand := func(i int) int64 {
		if in.Operands[i].Mode != ModeVar {
			return 0
		}
		return 1 + hops(i)
	}
	switch in.Op {
	case OpHalt:
		return 1
	case OpPushConst, OpPop:
		return 1
	case OpPushVar:
		return 2 + hops(0)
	case OpPushIndexed:
		return 4 + hops(0)
	case OpStoreVar:
		return 2 + hops(0)
	case OpStoreIndexed:
		return 4 + hops(0)
	case OpAdd, OpSub, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr:
		return 2
	case OpMul:
		return 4
	case OpDiv, OpMod:
		return 6
	case OpNeg, OpNot:
		return 1
	case OpJump:
		return 1
	case OpJumpZero:
		return 2
	case OpCall:
		return 6 + int64(in.NArgs)
	case OpReturn, OpReturnValue:
		return 4
	case OpPrint:
		return 2
	case OpPrintOperand:
		return 2 + operand(0)
	case OpMove:
		return 2 + hops(0) + operand(1)
	case OpAdd2, OpSub2:
		return 3 + hops(0) + operand(1)
	case OpMul2:
		return 5 + hops(0) + operand(1)
	case OpDiv2, OpMod2:
		return 7 + hops(0) + operand(1)
	case OpAdd3, OpSub3:
		return 3 + hops(0) + operand(1) + operand(2)
	case OpMul3:
		return 5 + hops(0) + operand(1) + operand(2)
	case OpDiv3, OpMod3:
		return 7 + hops(0) + operand(1) + operand(2)
	case OpBrEq, OpBrNe, OpBrLt, OpBrLe, OpBrGt, OpBrGe:
		return 2 + operand(0) + operand(1)
	default:
		return 1
	}
}

// Run executes the compiled program on the given machine state until it
// halts, returning the accumulated cost statistics.  The state carries all
// mutation, so one CompiledProgram may back concurrent runs on distinct
// states; a reset state replays with zero steady-state allocation.
// maxInstrs bounds the run (≤0 selects the DefaultExecOptions budget) and
// maxDepth bounds the activation stack (≤0 selects the default).
func (c *CompiledProgram) Run(m *MachineState, maxInstrs int64, maxDepth int) (CompiledRunStats, error) {
	if maxInstrs <= 0 {
		maxInstrs = DefaultExecOptions().MaxSteps
	}
	if maxDepth <= 0 {
		maxDepth = DefaultExecOptions().MaxDepth
	}
	var stats CompiledRunStats
	idx := c.entry
	for {
		if stats.Instructions >= maxInstrs {
			return stats, fmt.Errorf("%w after %d instructions", ErrStepLimit, stats.Instructions)
		}
		op := &c.ops[idx]
		stats.Instructions += op.instrs
		stats.SemanticCost += op.cost
		stats.Fetches++
		next, err := op.fn(m, maxDepth)
		if err != nil {
			return stats, fmt.Errorf("dir: compiled pc %d (%s): %w", op.pc, c.prog.Instrs[op.pc], err)
		}
		if next == haltIndex {
			return stats, nil
		}
		idx = next
	}
}

// RunTraced executes exactly like Run while appending the DIR index of every
// retired instruction to pcs (a fused superinstruction appends both of its
// constituent pcs, preserving the interpreted dynamic order — fusion never
// spans a control transfer).  The grown slice is returned along with the same
// statistics Run would report.  This is the canonical-execution entry point of
// the trace-once/cost-many split: one traced run feeds every organisation's
// cost derivation.
func (c *CompiledProgram) RunTraced(m *MachineState, maxInstrs int64, maxDepth int, pcs []int32) ([]int32, CompiledRunStats, error) {
	if maxInstrs <= 0 {
		maxInstrs = DefaultExecOptions().MaxSteps
	}
	if maxDepth <= 0 {
		maxDepth = DefaultExecOptions().MaxDepth
	}
	var stats CompiledRunStats
	idx := c.entry
	for {
		if stats.Instructions >= maxInstrs {
			return pcs, stats, fmt.Errorf("%w after %d instructions", ErrStepLimit, stats.Instructions)
		}
		op := &c.ops[idx]
		stats.Instructions += op.instrs
		stats.SemanticCost += op.cost
		stats.Fetches++
		pcs = append(pcs, int32(op.pc))
		if op.instrs == 2 {
			pcs = append(pcs, int32(op.pc+1))
		}
		next, err := op.fn(m, maxDepth)
		if err != nil {
			return pcs, stats, fmt.Errorf("dir: compiled pc %d (%s): %w", op.pc, c.prog.Instrs[op.pc], err)
		}
		if next == haltIndex {
			return pcs, stats, nil
		}
		idx = next
	}
}

// Execute compiles nothing further: it runs the compiled program on a fresh
// machine state, returning the same observables as the reference interpreter
// (Execute) so the two can be differentially compared.
func (c *CompiledProgram) Execute(opts ExecOptions) (*ExecResult, error) {
	m := NewMachineState(c.prog)
	stats, err := c.Run(m, opts.MaxSteps, opts.MaxDepth)
	if err != nil {
		return nil, err
	}
	return &ExecResult{Output: m.Output(), Executed: stats.Instructions}, nil
}

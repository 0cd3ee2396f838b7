package dir

import (
	"errors"
	"fmt"
)

// This file gives the DIR its reference operational semantics: a plain,
// untimed executor used as the oracle against which the compiler and the
// instrumented UHM simulation are differentially tested.  It models the
// run-time structures any DIR interpreter needs — an operand stack, and
// activation records linked by static links for the block-structured
// addressing the HLR requires — without any cost accounting.

// Execution errors.
var (
	// ErrStepLimit is returned when execution exceeds the step budget.
	ErrStepLimit = errors.New("dir: execution step limit exceeded")
	// ErrCallDepth is returned when the activation stack grows too deep.
	ErrCallDepth = errors.New("dir: call depth limit exceeded")
	// ErrDivideByZero is returned on division or modulo by zero.
	ErrDivideByZero = errors.New("dir: division by zero")
	// ErrAddressRange is returned when a variable or array access falls
	// outside its frame.
	ErrAddressRange = errors.New("dir: address out of frame")
	// ErrStackUnderflow is returned when an operation needs more operands
	// than the stack holds.
	ErrStackUnderflow = errors.New("dir: operand stack underflow")
	// ErrNoActivation is returned when up-level addressing cannot find an
	// activation at the required depth.
	ErrNoActivation = errors.New("dir: no activation at required depth")
)

// ExecOptions bounds an execution.
type ExecOptions struct {
	// MaxSteps limits the number of DIR instructions executed; zero selects
	// a generous default.
	MaxSteps int64
	// MaxDepth limits the activation-stack depth; zero selects a default.
	MaxDepth int
}

// DefaultExecOptions returns the default execution bounds.
func DefaultExecOptions() ExecOptions {
	return ExecOptions{MaxSteps: 50_000_000, MaxDepth: 10_000}
}

// ExecResult is the outcome of a reference execution.
type ExecResult struct {
	// Output is the sequence of printed values; every execution strategy in
	// the reproduction must produce the same Output for the same program.
	Output []int64
	// Executed is the number of DIR instructions executed (the dynamic
	// instruction count).
	Executed int64
}

// Execute runs the program on the reference DIR interpreter.
func Execute(p *Program, opts ExecOptions) (*ExecResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = DefaultExecOptions().MaxSteps
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = DefaultExecOptions().MaxDepth
	}
	m := NewMachineState(p)
	res := &ExecResult{}
	pc := p.Procs[0].Entry
	for {
		if res.Executed >= opts.MaxSteps {
			return nil, fmt.Errorf("%w after %d instructions", ErrStepLimit, res.Executed)
		}
		if pc < 0 || pc >= len(p.Instrs) {
			return nil, fmt.Errorf("dir: program counter %d out of range", pc)
		}
		in := p.Instrs[pc]
		res.Executed++
		next, halted, err := m.Step(in, pc, opts.MaxDepth)
		if err != nil {
			return nil, err
		}
		if halted {
			res.Output = m.Output()
			return res, nil
		}
		pc = next
	}
}

// Frame is one activation record.
type Frame struct {
	Proc    int
	Slots   []int64
	Static  *Frame // static link: activation of the lexically enclosing scope
	RetAddr int
	caller  *Frame // dynamic link: activation to resume on return
	depth   int
}

// MachineState is the run-time state shared by every interpretation strategy:
// the operand stack, the activation stack and the program output.  The
// instrumented UHM simulation drives the same state through its semantic
// routines, so differential tests can compare strategies value for value.
type MachineState struct {
	prog    *Program
	stack   []int64
	current *Frame
	frames  int
	peak    int // high-water mark of frames, for bounds-equivalence checks
	output  []int64
	pool    []*Frame // recycled activation records (see newFrame)
}

// NewMachineState creates run-time state positioned at the start of the main
// procedure.
func NewMachineState(p *Program) *MachineState {
	main := &Frame{Proc: 0, Slots: make([]int64, p.Procs[0].FrameSlots), RetAddr: -1}
	return &MachineState{prog: p, current: main, frames: 1, peak: 1}
}

// newFrame produces a zeroed activation record for proc, recycling a frame
// from the pool when one is available.  Frames are stack-disciplined (a
// returning activation can no longer be referenced by any live static link),
// so recycling is safe; pooling makes the steady-state execution loop
// allocation free once the peak call depth has been reached.
func (m *MachineState) newFrame(proc, slots int) *Frame {
	if n := len(m.pool); n > 0 {
		f := m.pool[n-1]
		m.pool = m.pool[:n-1]
		if cap(f.Slots) >= slots {
			f.Slots = f.Slots[:slots]
			for i := range f.Slots {
				f.Slots[i] = 0
			}
		} else {
			f.Slots = make([]int64, slots)
		}
		*f = Frame{Proc: proc, Slots: f.Slots}
		return f
	}
	return &Frame{Proc: proc, Slots: make([]int64, slots)}
}

// Reset returns the state to the start of the program, retaining every
// allocation (operand stack, output buffer, recycled frames) so a replayed
// run performs no steady-state allocation.
func (m *MachineState) Reset() {
	for f := m.current; f != nil; f = f.caller {
		m.pool = append(m.pool, f)
	}
	m.current = m.newFrame(0, m.prog.Procs[0].FrameSlots)
	m.current.RetAddr = -1
	m.frames = 1
	m.peak = 1
	m.stack = m.stack[:0]
	m.output = m.output[:0]
}

// Output returns the values printed so far.
func (m *MachineState) Output() []int64 { return m.output }

// StackDepth returns the operand-stack depth (for tests).
func (m *MachineState) StackDepth() int { return len(m.stack) }

// CallDepth returns the activation-stack depth.
func (m *MachineState) CallDepth() int { return m.frames }

// PeakDepth returns the deepest activation-stack depth the run has reached.
// A run succeeds under a depth limit d exactly when PeakDepth ≤ d (Call
// rejects the frame that would make the depth exceed d), which is what lets a
// recorded execution trace answer "would this run fit in limit d?" without
// re-executing.
func (m *MachineState) PeakDepth() int { return m.peak }

// CurrentFrame returns the active frame (for tests and diagnostics).
func (m *MachineState) CurrentFrame() *Frame { return m.current }

// CurrentStaticDepth returns the static nesting depth of the scope owned by
// the active frame.  Addressing routines use it to price the static-link
// hops needed to reach a variable declared in an enclosing contour.
func (m *MachineState) CurrentStaticDepth() int {
	return m.prog.Procs[m.current.Proc].Depth
}

// Push pushes a value onto the operand stack.
func (m *MachineState) Push(v int64) { m.stack = append(m.stack, v) }

// Pop pops a value from the operand stack.
func (m *MachineState) Pop() (int64, error) {
	if len(m.stack) == 0 {
		return 0, ErrStackUnderflow
	}
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v, nil
}

// frameAt follows static links to the activation owning scope depth d.
func (m *MachineState) frameAt(d int) (*Frame, error) {
	f := m.current
	for f != nil && m.prog.Procs[f.Proc].Depth > d {
		f = f.Static
	}
	if f == nil || m.prog.Procs[f.Proc].Depth != d {
		return nil, fmt.Errorf("%w: depth %d", ErrNoActivation, d)
	}
	return f, nil
}

// LoadVar reads the variable at addr (following static links).
func (m *MachineState) LoadVar(addr VarAddr, index int64) (int64, error) {
	f, err := m.frameAt(addr.Depth)
	if err != nil {
		return 0, err
	}
	slot := int64(addr.Offset) + index
	if slot < 0 || slot >= int64(len(f.Slots)) {
		return 0, fmt.Errorf("%w: slot %d of %d", ErrAddressRange, slot, len(f.Slots))
	}
	return f.Slots[slot], nil
}

// StoreVar writes the variable at addr (following static links).
func (m *MachineState) StoreVar(addr VarAddr, index int64, v int64) error {
	f, err := m.frameAt(addr.Depth)
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

// operandValue evaluates an operand (immediate or scalar variable).
func (m *MachineState) operandValue(op Operand) (int64, error) {
	switch op.Mode {
	case ModeImm:
		return op.Imm, nil
	case ModeVar:
		return m.LoadVar(op.Addr, 0)
	default:
		return 0, fmt.Errorf("dir: unsupported operand mode %v", op.Mode)
	}
}

// Print appends a value to the program output.
func (m *MachineState) Print(v int64) { m.output = append(m.output, v) }

// Call pushes a new activation for procedure proc, taking nargs arguments
// from the operand stack, and returns the procedure's entry point.
func (m *MachineState) Call(proc, nargs, retAddr, maxDepth int) (int, error) {
	if m.frames+1 > maxDepth {
		return 0, ErrCallDepth
	}
	info := m.prog.Procs[proc]
	static, err := m.frameAt(info.Depth - 1)
	if err != nil {
		return 0, err
	}
	frame := m.newFrame(proc, info.FrameSlots)
	frame.Static = static
	frame.RetAddr = retAddr
	frame.depth = m.current.depth + 1
	for i := nargs - 1; i >= 0; i-- {
		v, err := m.Pop()
		if err != nil {
			return 0, err
		}
		frame.Slots[i] = v
	}
	// The activation chain is maintained through RetFrame saved below.
	frame.caller = m.current
	m.current = frame
	m.frames++
	if m.frames > m.peak {
		m.peak = m.frames
	}
	return info.Entry, nil
}

// Return pops the current activation, pushes the return value and returns
// the resumption address.  The boolean result is false when returning from
// the outermost activation (which halts the program).
func (m *MachineState) Return(value int64) (int, bool) {
	if m.current.caller == nil {
		return 0, false
	}
	done := m.current
	ret := done.RetAddr
	m.current = done.caller
	m.frames--
	m.pool = append(m.pool, done)
	m.Push(value)
	return ret, true
}

// Step executes one DIR instruction and returns the next program counter and
// whether the program halted.
func (m *MachineState) Step(in Instruction, pc int, maxDepth int) (next int, halted bool, err error) {
	next = pc + 1
	switch in.Op {
	case OpHalt:
		return pc, true, nil

	case OpPushConst:
		m.Push(in.Operands[0].Imm)
	case OpPushVar:
		v, err := m.LoadVar(in.Operands[0].Addr, 0)
		if err != nil {
			return 0, false, err
		}
		m.Push(v)
	case OpPushIndexed:
		idx, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		v, err := m.LoadVar(in.Operands[0].Addr, idx)
		if err != nil {
			return 0, false, err
		}
		m.Push(v)
	case OpStoreVar:
		v, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		if err := m.StoreVar(in.Operands[0].Addr, 0, v); err != nil {
			return 0, false, err
		}
	case OpStoreIndexed:
		v, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		idx, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		if err := m.StoreVar(in.Operands[0].Addr, idx, v); err != nil {
			return 0, false, err
		}
	case OpPop:
		if _, err := m.Pop(); err != nil {
			return 0, false, err
		}

	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr:
		b, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		a, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		v, err := ApplyArith(in.Op, a, b)
		if err != nil {
			return 0, false, err
		}
		m.Push(v)

	case OpNeg:
		a, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		m.Push(-a)
	case OpNot:
		a, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		if a == 0 {
			m.Push(1)
		} else {
			m.Push(0)
		}

	case OpJump:
		next = in.Target
	case OpJumpZero:
		v, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		if v == 0 {
			next = in.Target
		}

	case OpCall:
		entry, err := m.Call(in.Proc, in.NArgs, pc+1, maxDepth)
		if err != nil {
			return 0, false, err
		}
		next = entry
	case OpReturn:
		ret, ok := m.Return(0)
		if !ok {
			return pc, true, nil
		}
		next = ret
	case OpReturnValue:
		v, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		ret, ok := m.Return(v)
		if !ok {
			return pc, true, nil
		}
		next = ret

	case OpPrint:
		v, err := m.Pop()
		if err != nil {
			return 0, false, err
		}
		m.Print(v)
	case OpPrintOperand:
		v, err := m.operandValue(in.Operands[0])
		if err != nil {
			return 0, false, err
		}
		m.Print(v)

	case OpMove:
		v, err := m.operandValue(in.Operands[1])
		if err != nil {
			return 0, false, err
		}
		if err := m.StoreVar(in.Operands[0].Addr, 0, v); err != nil {
			return 0, false, err
		}
	case OpAdd2, OpSub2, OpMul2, OpDiv2, OpMod2:
		dst, err := m.LoadVar(in.Operands[0].Addr, 0)
		if err != nil {
			return 0, false, err
		}
		src, err := m.operandValue(in.Operands[1])
		if err != nil {
			return 0, false, err
		}
		v, err := ApplyArith(twoOpBase(in.Op), dst, src)
		if err != nil {
			return 0, false, err
		}
		if err := m.StoreVar(in.Operands[0].Addr, 0, v); err != nil {
			return 0, false, err
		}
	case OpAdd3, OpSub3, OpMul3, OpDiv3, OpMod3:
		a, err := m.operandValue(in.Operands[1])
		if err != nil {
			return 0, false, err
		}
		b, err := m.operandValue(in.Operands[2])
		if err != nil {
			return 0, false, err
		}
		v, err := ApplyArith(threeOpBase(in.Op), a, b)
		if err != nil {
			return 0, false, err
		}
		if err := m.StoreVar(in.Operands[0].Addr, 0, v); err != nil {
			return 0, false, err
		}

	case OpBrEq, OpBrNe, OpBrLt, OpBrLe, OpBrGt, OpBrGe:
		a, err := m.operandValue(in.Operands[0])
		if err != nil {
			return 0, false, err
		}
		b, err := m.operandValue(in.Operands[1])
		if err != nil {
			return 0, false, err
		}
		taken, err := CompareBranch(in.Op, a, b)
		if err != nil {
			return 0, false, err
		}
		if taken {
			next = in.Target
		}

	default:
		return 0, false, fmt.Errorf("dir: unimplemented opcode %v", in.Op)
	}
	return next, false, nil
}

// ApplyArith applies a stack-level arithmetic/comparison/boolean opcode to two
// values.
func ApplyArith(op Opcode, a, b int64) (int64, error) {
	boolToInt := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return 0, ErrDivideByZero
		}
		return a / b, nil
	case OpMod:
		if b == 0 {
			return 0, ErrDivideByZero
		}
		return a % b, nil
	case OpEq:
		return boolToInt(a == b), nil
	case OpNe:
		return boolToInt(a != b), nil
	case OpLt:
		return boolToInt(a < b), nil
	case OpLe:
		return boolToInt(a <= b), nil
	case OpGt:
		return boolToInt(a > b), nil
	case OpGe:
		return boolToInt(a >= b), nil
	case OpAnd:
		return boolToInt(a != 0 && b != 0), nil
	case OpOr:
		return boolToInt(a != 0 || b != 0), nil
	default:
		return 0, fmt.Errorf("dir: %v is not an arithmetic opcode", op)
	}
}

// CompareBranch evaluates a compound compare-and-branch opcode.
func CompareBranch(op Opcode, a, b int64) (bool, error) {
	switch op {
	case OpBrEq:
		return a == b, nil
	case OpBrNe:
		return a != b, nil
	case OpBrLt:
		return a < b, nil
	case OpBrLe:
		return a <= b, nil
	case OpBrGt:
		return a > b, nil
	case OpBrGe:
		return a >= b, nil
	default:
		return false, fmt.Errorf("dir: %v is not a compare-and-branch opcode", op)
	}
}

// twoOpBase maps a two-operand arithmetic opcode to its stack-level base.
func twoOpBase(op Opcode) Opcode {
	switch op {
	case OpAdd2:
		return OpAdd
	case OpSub2:
		return OpSub
	case OpMul2:
		return OpMul
	case OpDiv2:
		return OpDiv
	case OpMod2:
		return OpMod
	default:
		return op
	}
}

// threeOpBase maps a three-operand arithmetic opcode to its stack-level base.
func threeOpBase(op Opcode) Opcode {
	switch op {
	case OpAdd3:
		return OpAdd
	case OpSub3:
		return OpSub
	case OpMul3:
		return OpMul
	case OpDiv3:
		return OpDiv
	case OpMod3:
		return OpMod
	default:
		return op
	}
}

package host

import (
	"errors"
	"fmt"

	"uhm/internal/dir"
	"uhm/internal/psder"
)

// Execution errors.
var (
	// ErrHalted is returned when a sequence is executed on a halted machine.
	ErrHalted = errors.New("host: machine is halted")
	// ErrNoNext is returned when a sequence ends without producing a next
	// DIR address and without halting.
	ErrNoNext = errors.New("host: sequence ended without INTERP or halt")
	// ErrCallDepth mirrors the DIR executor's recursion limit.
	ErrCallDepth = errors.New("host: call depth limit exceeded")
)

// Options bounds machine execution.
type Options struct {
	// MaxDepth limits the activation-stack depth; zero selects a default.
	MaxDepth int
}

// DefaultOptions returns the default bounds.
func DefaultOptions() Options { return Options{MaxDepth: 10_000} }

// StepResult reports the outcome of executing one PSDER sequence (i.e. the
// semantics of one DIR instruction).
type StepResult struct {
	// NextPC is the DIR instruction index named by the terminating INTERP.
	NextPC int
	// Halted reports that the program finished during this sequence.
	Halted bool
	// SemanticCycles is the IU1+IU2 time spent, in level-1 cycles: one cycle
	// per short-format instruction issued plus the cost of each semantic
	// routine executed.  This is the contribution of this DIR instruction to
	// the paper's parameter x.
	SemanticCycles int64
	// ShortInstrs is the number of short-format instructions issued (IU2
	// activity): the sequence's executed prefix, which stops short of the
	// end when a CALL halts the program.
	ShortInstrs int
}

// Machine is the run-time half of the UHM: the operand and activation stacks
// shared by every interpretation strategy, plus the semantic-routine library.
type Machine struct {
	prog   *dir.Program
	state  *dir.MachineState
	opts   Options
	halted bool
}

// New creates a machine positioned at the start of the program's main
// procedure.
func New(prog *dir.Program, opts Options) *Machine {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = DefaultOptions().MaxDepth
	}
	return &Machine{
		prog:  prog,
		state: dir.NewMachineState(prog),
		opts:  opts,
	}
}

// Halted reports whether the program has finished.
func (m *Machine) Halted() bool { return m.halted }

// Reset rewinds the machine to the start of the program, retaining the
// run-time state buffers so a replayed run performs no steady-state
// allocation.
func (m *Machine) Reset() {
	m.halted = false
	m.state.Reset()
}

// Output returns the program output so far.
func (m *Machine) Output() []int64 { return m.state.Output() }

// State exposes the underlying run-time state (for tests and diagnostics).
func (m *Machine) State() *dir.MachineState { return m.state }

// ExecSequence executes one PSDER sequence to completion.
func (m *Machine) ExecSequence(seq psder.Sequence) (StepResult, error) {
	if m.halted {
		return StepResult{}, ErrHalted
	}
	var res StepResult
	for _, in := range seq {
		res.ShortInstrs++
		res.SemanticCycles++ // IU2 issues one short-format instruction
		switch in.Op {
		case psder.OpPush:
			m.state.Push(int64(in.Arg))

		case psder.OpPop:
			if _, err := m.state.Pop(); err != nil {
				return res, err
			}

		case psder.OpCall:
			cost, err := m.execRoutine(in.Routine())
			res.SemanticCycles += cost
			if err != nil {
				return res, err
			}
			if m.halted {
				res.Halted = true
				return res, nil
			}

		case psder.OpInterp:
			var next int64
			if in.Mode == psder.ModeStack {
				v, err := m.state.Pop()
				if err != nil {
					return res, err
				}
				next = v
			} else {
				next = int64(in.Arg)
			}
			if next < 0 || next >= int64(len(m.prog.Instrs)) {
				return res, fmt.Errorf("host: INTERP to out-of-range DIR address %d", next)
			}
			res.NextPC = int(next)
			return res, nil

		default:
			return res, fmt.Errorf("host: unknown short-format opcode %v", in.Op)
		}
	}
	return res, ErrNoNext
}

// execRoutine runs one semantic routine against the machine state and
// returns its cost in level-1 cycles (base cost plus dynamic extras such as
// static-link hops and argument transfers).
func (m *Machine) execRoutine(r psder.RoutineID) (int64, error) {
	cost := int64(r.BaseCost())
	st := m.state

	popAddr := func() (dir.VarAddr, error) {
		offset, err := st.Pop()
		if err != nil {
			return dir.VarAddr{}, err
		}
		depth, err := st.Pop()
		if err != nil {
			return dir.VarAddr{}, err
		}
		addr := dir.VarAddr{Depth: int(depth), Offset: int(offset)}
		// Following the static chain costs one cycle per hop.
		hops := st.CurrentStaticDepth() - addr.Depth
		if hops > 0 {
			cost += int64(hops)
		}
		return addr, nil
	}

	binary := func(op dir.Opcode) error {
		b, err := st.Pop()
		if err != nil {
			return err
		}
		a, err := st.Pop()
		if err != nil {
			return err
		}
		v, err := dir.ApplyArith(op, a, b)
		if err != nil {
			return err
		}
		st.Push(v)
		return nil
	}

	selectBranch := func(op dir.Opcode) error {
		fall, err := st.Pop()
		if err != nil {
			return err
		}
		target, err := st.Pop()
		if err != nil {
			return err
		}
		b, err := st.Pop()
		if err != nil {
			return err
		}
		a, err := st.Pop()
		if err != nil {
			return err
		}
		taken, err := dir.CompareBranch(op, a, b)
		if err != nil {
			return err
		}
		if taken {
			st.Push(target)
		} else {
			st.Push(fall)
		}
		return nil
	}

	switch r {
	case psder.RoutineLoadVar:
		addr, err := popAddr()
		if err != nil {
			return cost, err
		}
		v, err := st.LoadVar(addr, 0)
		if err != nil {
			return cost, err
		}
		st.Push(v)
		return cost, nil

	case psder.RoutineLoadIndexed:
		addr, err := popAddr()
		if err != nil {
			return cost, err
		}
		idx, err := st.Pop()
		if err != nil {
			return cost, err
		}
		v, err := st.LoadVar(addr, idx)
		if err != nil {
			return cost, err
		}
		st.Push(v)
		return cost, nil

	case psder.RoutineStoreVar:
		addr, err := popAddr()
		if err != nil {
			return cost, err
		}
		v, err := st.Pop()
		if err != nil {
			return cost, err
		}
		return cost, st.StoreVar(addr, 0, v)

	case psder.RoutineStoreIndexed:
		addr, err := popAddr()
		if err != nil {
			return cost, err
		}
		v, err := st.Pop()
		if err != nil {
			return cost, err
		}
		idx, err := st.Pop()
		if err != nil {
			return cost, err
		}
		return cost, st.StoreVar(addr, idx, v)

	case psder.RoutineAdd:
		return cost, binary(dir.OpAdd)
	case psder.RoutineSub:
		return cost, binary(dir.OpSub)
	case psder.RoutineMul:
		return cost, binary(dir.OpMul)
	case psder.RoutineDiv:
		return cost, binary(dir.OpDiv)
	case psder.RoutineMod:
		return cost, binary(dir.OpMod)
	case psder.RoutineEq:
		return cost, binary(dir.OpEq)
	case psder.RoutineNe:
		return cost, binary(dir.OpNe)
	case psder.RoutineLt:
		return cost, binary(dir.OpLt)
	case psder.RoutineLe:
		return cost, binary(dir.OpLe)
	case psder.RoutineGt:
		return cost, binary(dir.OpGt)
	case psder.RoutineGe:
		return cost, binary(dir.OpGe)
	case psder.RoutineAnd:
		return cost, binary(dir.OpAnd)
	case psder.RoutineOr:
		return cost, binary(dir.OpOr)

	case psder.RoutineNeg:
		v, err := st.Pop()
		if err != nil {
			return cost, err
		}
		st.Push(-v)
		return cost, nil
	case psder.RoutineNot:
		v, err := st.Pop()
		if err != nil {
			return cost, err
		}
		if v == 0 {
			st.Push(1)
		} else {
			st.Push(0)
		}
		return cost, nil

	case psder.RoutineSelectIfZero:
		fall, err := st.Pop()
		if err != nil {
			return cost, err
		}
		target, err := st.Pop()
		if err != nil {
			return cost, err
		}
		cond, err := st.Pop()
		if err != nil {
			return cost, err
		}
		if cond == 0 {
			st.Push(target)
		} else {
			st.Push(fall)
		}
		return cost, nil

	case psder.RoutineSelectEq:
		return cost, selectBranch(dir.OpBrEq)
	case psder.RoutineSelectNe:
		return cost, selectBranch(dir.OpBrNe)
	case psder.RoutineSelectLt:
		return cost, selectBranch(dir.OpBrLt)
	case psder.RoutineSelectLe:
		return cost, selectBranch(dir.OpBrLe)
	case psder.RoutineSelectGt:
		return cost, selectBranch(dir.OpBrGt)
	case psder.RoutineSelectGe:
		return cost, selectBranch(dir.OpBrGe)

	case psder.RoutineCall:
		retAddr, err := st.Pop()
		if err != nil {
			return cost, err
		}
		nargs, err := st.Pop()
		if err != nil {
			return cost, err
		}
		proc, err := st.Pop()
		if err != nil {
			return cost, err
		}
		if proc < 0 || proc >= int64(len(m.prog.Procs)) {
			return cost, fmt.Errorf("host: call to unknown procedure %d", proc)
		}
		// Transferring each argument into the new frame costs one cycle.
		cost += nargs
		entry, err := st.Call(int(proc), int(nargs), int(retAddr), m.opts.MaxDepth)
		if err != nil {
			if errors.Is(err, dir.ErrCallDepth) {
				return cost, fmt.Errorf("%w: %v", ErrCallDepth, err)
			}
			return cost, err
		}
		st.Push(int64(entry))
		return cost, nil

	case psder.RoutineReturn:
		ret, ok := st.Return(0)
		if !ok {
			m.halted = true
			return cost, nil
		}
		st.Push(int64(ret))
		return cost, nil

	case psder.RoutineReturnValue:
		v, err := st.Pop()
		if err != nil {
			return cost, err
		}
		ret, ok := st.Return(v)
		if !ok {
			m.halted = true
			return cost, nil
		}
		st.Push(int64(ret))
		return cost, nil

	case psder.RoutinePrint:
		v, err := st.Pop()
		if err != nil {
			return cost, err
		}
		st.Print(v)
		return cost, nil

	case psder.RoutineHalt:
		m.halted = true
		return cost, nil

	default:
		return cost, fmt.Errorf("host: unimplemented semantic routine %v", r)
	}
}

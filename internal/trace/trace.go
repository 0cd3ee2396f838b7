package trace

import (
	"errors"
	"fmt"

	"uhm/internal/dir"
	"uhm/internal/psder"
)

// headerBytes is the nominal fixed overhead of a Trace in the footprint
// accounting (struct header, slice headers, scalars).
const headerBytes = 64

// Trace is one recorded execution of a DIR program.  It is immutable after
// Record and safe to share: cost derivations only read it.
type Trace struct {
	// PCs is the dynamic instruction stream: the DIR index of every
	// instruction executed, in order, ending with the halting instruction.
	PCs []int32
	// Output is the program's observable output.
	Output []int64
	// PeakDepth is the activation-stack high-water mark of the run.  A run
	// bounded by MaxDepth d succeeds exactly when PeakDepth ≤ d, so a
	// derivation can decide limit questions without re-executing.
	PeakDepth int
	// SemanticCycles is the total host (IU1+IU2) semantic cost of the run in
	// level-1 cycles.  It is configuration-independent: every interpreted
	// organisation executes the same PSDER sequences through the same
	// semantic routines.
	SemanticCycles int64
	// Compiled is the run statistics of the closure-compiled backend that
	// recorded the trace, so the Compiled organisation's report derives too.
	Compiled dir.CompiledRunStats
}

// Instructions returns the dynamic instruction count of the trace.
func (t *Trace) Instructions() int64 { return int64(len(t.PCs)) }

// SizeBytes returns the resident size of the trace for footprint accounting:
// four bytes per dynamic instruction plus eight per output value.
func (t *Trace) SizeBytes() int {
	return headerBytes + len(t.PCs)*4 + len(t.Output)*8
}

// Record executes the program once on its closure-compiled form and returns
// its trace, which carries the compiled backend's cost statistics.
// maxInstrs and maxDepth bound the recording (≤0 selects the dir defaults);
// an execution that fails — errors, exceeds a bound, or leaves the static
// contour its costs were priced on, which the compiled backend checks on
// every up-level access — yields an error, never a partial trace.
func Record(p *dir.Program, comp *dir.CompiledProgram, seqs []psder.Sequence, maxInstrs int64, maxDepth int) (*Trace, error) {
	costs, err := SemCosts(p, seqs)
	if err != nil {
		return nil, err
	}
	m := dir.NewMachineState(p)
	pcs, stats, err := comp.RunTraced(m, maxInstrs, maxDepth, make([]int32, 0, 4096))
	if err != nil {
		return nil, err
	}
	tr := &Trace{PCs: pcs, Output: m.Output(), PeakDepth: m.PeakDepth(), Compiled: stats}
	if len(tr.PCs) == 0 {
		return nil, errors.New("trace: empty execution")
	}
	var total int64
	for _, pc := range tr.PCs {
		total += costs[pc]
	}
	// A program halting through a return executes the Call of its final
	// sequence but never issues the trailing INTERP (the host returns as soon
	// as the machine halts), so the final instruction costs one cycle less
	// than its static price.  A RoutineHalt sequence has no trailing INTERP
	// and needs no adjustment.
	switch p.Instrs[tr.PCs[len(tr.PCs)-1]].Op {
	case dir.OpReturn, dir.OpReturnValue:
		total--
	}
	tr.SemanticCycles = total
	return tr, nil
}

// SemCosts returns, for every DIR instruction, the host semantic cost of
// executing its PSDER sequence in full: one cycle per short-format
// instruction issued plus each called routine's base cost and dynamic extras.
// The extras are static after translation — addressing routines are always
// preceded by immediate PUSHes of their (depth, offset) address, so the
// static-link hop count is the instruction contour's depth minus the pushed
// depth; RoutineCall is always preceded by an immediate PUSH of its argument
// count.  A sequence that breaks those invariants (no translator output does)
// is an error, so a mispriced cost can never be derived silently.
func SemCosts(p *dir.Program, seqs []psder.Sequence) ([]int64, error) {
	costs := make([]int64, len(seqs))
	for pc, seq := range seqs {
		c, err := seqCost(p, p.Instrs[pc].Contour, seq)
		if err != nil {
			return nil, fmt.Errorf("trace: pc %d: %w", pc, err)
		}
		costs[pc] = c
	}
	return costs, nil
}

// seqCost prices one sequence executed from an activation of the given
// contour.
func seqCost(p *dir.Program, contour int, seq psder.Sequence) (int64, error) {
	cost := int64(len(seq)) // IU2 issues one cycle per short-format instruction
	for i, in := range seq {
		switch in.Op {
		case psder.OpInterp:
			// The cost model assumes the whole sequence issues (minus the
			// recorded halting-return adjustment), which requires INTERP to
			// terminate the sequence.
			if i != len(seq)-1 {
				return 0, errors.New("INTERP before the end of the sequence")
			}
		case psder.OpCall:
			r := in.Routine()
			c := int64(r.BaseCost())
			switch r {
			case psder.RoutineLoadVar, psder.RoutineLoadIndexed,
				psder.RoutineStoreVar, psder.RoutineStoreIndexed:
				if i < 2 || seq[i-2].Op != psder.OpPush || seq[i-1].Op != psder.OpPush {
					return 0, fmt.Errorf("addressing routine %v without an immediate address", r)
				}
				if hops := p.Procs[contour].Depth - int(seq[i-2].Arg); hops > 0 {
					c += int64(hops)
				}
			case psder.RoutineCall:
				if i < 3 || seq[i-2].Op != psder.OpPush {
					return 0, errors.New("call routine without an immediate argument count")
				}
				c += int64(seq[i-2].Arg)
			}
			cost += c
		}
	}
	return cost, nil
}

// The predecoded-program fast path: a DIR binary decoded and translated once,
// shared immutably by every strategy and goroutine that runs it.  The
// interpretive overhead the DIR/DTB design exists to eliminate — repeated
// field extraction, code-tree walks and translation — is paid a single time
// here; the simulator then charges the recorded per-pc costs on every
// execution, so reports are identical to decoding afresh each time, while the
// host pays only a slice index per dispatched instruction.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"uhm/internal/dir"
	"uhm/internal/faultinject"
	"uhm/internal/memory"
	"uhm/internal/psder"
	"uhm/internal/trace"
	"uhm/internal/translate"
)

// PredecodedProgram is a DIR program encoded at one degree, decoded and
// translated exactly once.  It is immutable after construction: the same
// instance can back any number of concurrent Run calls under any strategy.
// The closure-compiled form used by the Compiled strategy is built lazily on
// first use and then shared the same way.
type PredecodedProgram struct {
	// Program is the in-memory DIR program.
	Program *dir.Program
	// Binary is the encoded static representation the costs were measured on.
	Binary *dir.Binary

	seqs          []psder.Sequence // PSDER translation of each instruction
	costs         []dir.DecodeCost // decode cost of each instruction
	expandedWords int              // total PSDER words of the full expansion
	baseBytes     int              // resident bytes of the eagerly built forms

	// Static fetch geometry of each instruction in the encoded binary: the
	// first level-2 word its bit range touches and how many words it spans.
	// Cost derivations stream these instead of re-walking the bit ranges.
	fetchFirst []int32
	fetchWords []int32

	compileOnce   sync.Once
	compiled      *dir.CompiledProgram
	compileErr    error
	compiledWords atomic.Int64 // footprint of the lazily built compiled form

	traceOnce  sync.Once
	trace      *trace.Trace
	traceErr   error
	traceDone  atomic.Bool  // set (release) once a trace is recorded or adopted
	traceBytes atomic.Int64 // footprint of the lazily recorded trace
}

// Predecode encodes the program at the given degree and predecodes the
// result.
func Predecode(p *dir.Program, degree dir.Degree) (*PredecodedProgram, error) {
	bin, err := dir.Encode(p, degree)
	if err != nil {
		return nil, err
	}
	return PredecodeBinary(bin)
}

// PredecodeBinary decodes every instruction of the binary once and generates
// and validates its PSDER translation.
func PredecodeBinary(bin *dir.Binary) (*PredecodedProgram, error) {
	pd, err := bin.Predecode()
	if err != nil {
		return nil, err
	}
	pp := &PredecodedProgram{
		Program:    bin.Program,
		Binary:     bin,
		seqs:       make([]psder.Sequence, len(pd.Instrs)),
		costs:      pd.Costs,
		fetchFirst: make([]int32, len(pd.Instrs)),
		fetchWords: make([]int32, len(pd.Instrs)),
	}
	for pc, in := range pd.Instrs {
		seq, err := translate.Translate(in, pc)
		if err == nil {
			err = seq.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("sim: predecode instruction %d (%s): %w", pc, in, err)
		}
		pp.seqs[pc] = seq
		pp.expandedWords += seq.Words()

		// Record the instruction's static fetch geometry (mirroring the
		// fetch loop's zero-length rule for degenerate encodings).
		offset, length, err := bin.InstrBitRange(pc)
		if err != nil {
			return nil, fmt.Errorf("sim: predecode instruction %d (%s): %w", pc, in, err)
		}
		if length == 0 {
			length = 1
		}
		firstWord := offset / (memory.WordBytes * 8)
		lastWord := (offset + length - 1) / (memory.WordBytes * 8)
		pp.fetchFirst[pc] = int32(firstWord)
		pp.fetchWords[pc] = int32(lastWord - firstWord + 1)
	}
	// The byte accounting the service registry evicts on: the encoded static
	// representation, the per-pc PSDER sequences, the recorded decode costs
	// (two machine ints per pc) and the fetch-geometry tables (two int32 per
	// pc).
	pp.baseBytes = bin.SizeBytes() + pp.expandedWords*memory.WordBytes + len(pd.Costs)*16 + len(pd.Instrs)*8
	return pp, nil
}

// FootprintBytes estimates the resident size of the predecoded forms: the
// encoded binary, the PSDER sequences, the decode costs, the fetch geometry,
// and — once built — the closure-compiled program and the recorded
// execution trace.  The service registry charges this against its byte budget
// when deciding what to evict, so a cached trace lives and dies with its
// artifact.  Safe for concurrent use with Compiled and Trace.
func (pp *PredecodedProgram) FootprintBytes() int {
	return pp.baseBytes + int(pp.compiledWords.Load())*memory.WordBytes + int(pp.traceBytes.Load())
}

// Degree returns the encoding degree of the predecoded binary.
func (pp *PredecodedProgram) Degree() dir.Degree { return pp.Binary.Degree }

// NumInstrs returns the number of DIR instructions.
func (pp *PredecodedProgram) NumInstrs() int { return len(pp.seqs) }

// Sequence returns the PSDER translation of the instruction at pc.  The
// returned sequence is shared: callers must not modify it.
func (pp *PredecodedProgram) Sequence(pc int) psder.Sequence { return pp.seqs[pc] }

// DecodeCost returns the measured cost of decoding the instruction at pc from
// the binary, as an interpreter without this fast path would pay it on every
// execution.
func (pp *PredecodedProgram) DecodeCost(pc int) dir.DecodeCost { return pp.costs[pc] }

// ExpandedWords returns the total size in words of the fully expanded PSDER
// program (the §3.1 "expanded machine language" baseline).
func (pp *PredecodedProgram) ExpandedWords() int { return pp.expandedWords }

// Compiled returns the shared closure-compiled form of the program,
// compiling it on first use.  Like the predecoded structures, the compiled
// program is immutable and may back any number of concurrent runs; each run
// supplies its own dir.MachineState.
func (pp *PredecodedProgram) Compiled() (*dir.CompiledProgram, error) {
	pp.compileOnce.Do(func() {
		pp.compiled, pp.compileErr = dir.Compile(pp.Program)
		if pp.compileErr == nil {
			pp.compiledWords.Store(int64(pp.compiled.FootprintWords()))
		}
	})
	return pp.compiled, pp.compileErr
}

// Trace returns the shared execution trace of the program, recording it on
// first use — the "trace once" half of the trace-once/cost-many split.  The
// recording runs at the default simulation bounds, so any configuration whose
// bounds the trace satisfies can derive from it; Replayer.Derive rechecks the
// recorded length and peak depth against its own configuration and declines
// otherwise.  Like the compiled form, the trace is immutable, shared by any
// number of concurrent derivations, and counted in FootprintBytes.
func (pp *PredecodedProgram) Trace() (*trace.Trace, error) {
	pp.traceOnce.Do(func() {
		// An injected recording failure is cached like a real one — the
		// program declines every future derivation (an ErrNoTrace storm) and
		// ReplayDerived serves it by full replay for its lifetime.
		if ferr := faultinject.Fire(faultinject.SiteTraceRecord); ferr != nil {
			pp.traceErr = ferr
			return
		}
		pp.trace, pp.traceErr = pp.RecordTrace()
		if pp.traceErr == nil {
			pp.traceBytes.Store(int64(pp.trace.SizeBytes()))
			pp.traceDone.Store(true)
		}
	})
	return pp.trace, pp.traceErr
}

// AdoptTrace installs a previously recorded trace — a persisted artifact's
// canonical execution reloaded from the store — as this program's shared
// trace, so a warm-started artifact derives reports without ever re-executing
// the program.  The adoption loses the race against any recording already in
// flight (the sync.Once arbitrates); the trace must have been recorded on
// this same program, which the store's verify-by-hash load guarantees.
func (pp *PredecodedProgram) AdoptTrace(t *trace.Trace) {
	if t == nil {
		return
	}
	pp.traceOnce.Do(func() {
		pp.trace = t
		pp.traceBytes.Store(int64(t.SizeBytes()))
		pp.traceDone.Store(true)
	})
}

// CachedTrace returns the shared trace if one has already been recorded or
// adopted, without triggering a recording; it returns nil otherwise.
// Artifact snapshotting uses it so persistence never forces an execution.
func (pp *PredecodedProgram) CachedTrace() *trace.Trace {
	if pp.traceDone.Load() {
		return pp.trace
	}
	return nil
}

// RecordTrace records a fresh execution trace on the closure-compiled form
// without touching the cache; a program that does not compile has no trace,
// and RecordTrace returns the compile error.  Most callers want the cached
// Trace; this entry point exists for benchmarks, tests and audits that
// measure or re-check the recording itself.
func (pp *PredecodedProgram) RecordTrace() (*trace.Trace, error) {
	comp, err := pp.Compiled()
	if err != nil {
		return nil, err
	}
	def := DefaultConfig()
	return trace.Record(pp.Program, comp, pp.seqs, def.MaxInstructions, def.MaxDepth)
}

// The predecoded-program fast path: a DIR program translated once (its
// Binding) and each of its binaries decoded once (one PredecodedProgram per
// degree of encoding), all shared immutably by every strategy and goroutine
// that runs them.  The interpretive overhead the DIR/DTB design exists to
// eliminate — repeated field extraction, code-tree walks and translation — is
// paid a single time here; the simulator then charges the recorded per-pc
// costs on every execution, so reports are identical to decoding afresh each
// time, while the host pays only a slice index per dispatched instruction.
package sim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"uhm/internal/dir"
	"uhm/internal/faultinject"
	"uhm/internal/memory"
	"uhm/internal/psder"
	"uhm/internal/trace"
	"uhm/internal/translate"
)

// Binding is the degree-independent dynamic representation of one DIR
// program: the PSDER translation of every instruction, made by Bind, and the
// closure-compiled form and the execution trace, each built once on first
// use.  Every degree the program is predecoded at shares it, so translation,
// compilation and recording happen once per program however many encodings
// run it.  Safe for concurrent use.
type Binding struct {
	// Program is the in-memory DIR program.
	Program *dir.Program

	seqs          []psder.Sequence // PSDER translation of each instruction
	expandedWords int              // total PSDER words of the full expansion

	compileOnce   sync.Once
	compiled      *dir.CompiledProgram
	compileErr    error
	compiledWords atomic.Int64 // footprint of the lazily built compiled form

	traceOnce sync.Once
	traceErr  error
	recorded  atomic.Pointer[trace.Trace] // set once recorded, or at Bind
}

// Bind translates every instruction of the program to PSDER and validates
// the result.  A non-nil tr seeds the binding's trace — a persisted
// artifact's canonical execution reloaded from the store — so the program
// derives reports without ever re-executing; it must have been recorded on
// this same program, which the store's verify-by-hash load guarantees.
func Bind(p *dir.Program, tr *trace.Trace) (*Binding, error) {
	seqs, err := translate.TranslateProgram(p)
	if err != nil {
		return nil, fmt.Errorf("sim: bind %w", err)
	}
	b := &Binding{Program: p, seqs: seqs}
	for _, seq := range seqs {
		b.expandedWords += seq.Words()
	}
	b.recorded.Store(tr)
	return b, nil
}

// FootprintBytes estimates the resident size of the binding: the PSDER
// sequences and — once built — the closure-compiled program and the recorded
// execution trace.  The service registry charges this against its byte budget
// when deciding what to evict, so a cached trace lives and dies with its
// artifact.  Safe for concurrent use with Compiled and Trace.
func (b *Binding) FootprintBytes() int {
	bytes := (b.expandedWords + int(b.compiledWords.Load())) * memory.WordBytes
	if tr := b.recorded.Load(); tr != nil {
		bytes += tr.SizeBytes()
	}
	return bytes
}

// NumInstrs returns the number of DIR instructions.
func (b *Binding) NumInstrs() int { return len(b.seqs) }

// Sequence returns the PSDER translation of the instruction at pc.  The
// returned sequence is shared: callers must not modify it.
func (b *Binding) Sequence(pc int) psder.Sequence { return b.seqs[pc] }

// ExpandedWords returns the total size in words of the fully expanded PSDER
// program (the §3.1 "expanded machine language" baseline).
func (b *Binding) ExpandedWords() int { return b.expandedWords }

// Compiled returns the shared closure-compiled form of the program,
// compiling it on first use.  Like the translation, the compiled program is
// immutable and may back any number of concurrent runs; each run supplies its
// own dir.MachineState.
func (b *Binding) Compiled() (*dir.CompiledProgram, error) {
	b.compileOnce.Do(func() {
		b.compiled, b.compileErr = dir.Compile(b.Program)
		if b.compileErr == nil {
			b.compiledWords.Store(int64(b.compiled.FootprintWords()))
		}
	})
	return b.compiled, b.compileErr
}

// Trace returns the shared execution trace of the program, recording it on
// first use unless Bind seeded it — the "trace once" half of the
// trace-once/cost-many split.  The recording runs at the default simulation
// bounds, so any configuration whose bounds the trace satisfies can derive
// from it; Replayer.Derive rechecks the recorded length and peak depth
// against its own configuration and declines otherwise.  Like the compiled
// form, the trace is immutable, shared by any number of concurrent
// derivations at any degree, and counted in FootprintBytes.
func (b *Binding) Trace() (*trace.Trace, error) {
	if tr := b.recorded.Load(); tr != nil {
		return tr, nil
	}
	b.traceOnce.Do(func() {
		// An injected recording failure is cached like a real one — the
		// program declines every future derivation at every degree (an
		// ErrNoTrace storm) and ReplayDerived serves it by full replay for
		// its lifetime.
		if b.traceErr = faultinject.Fire(faultinject.SiteTraceRecord); b.traceErr != nil {
			return
		}
		var tr *trace.Trace
		if tr, b.traceErr = b.RecordTrace(); b.traceErr == nil {
			b.recorded.Store(tr)
		}
	})
	return b.recorded.Load(), b.traceErr
}

// CachedTrace returns the shared trace if one has already been recorded or
// was seeded, without triggering a recording; it returns nil otherwise.
// Artifact snapshotting uses it so persistence never forces an execution.
func (b *Binding) CachedTrace() *trace.Trace { return b.recorded.Load() }

// RecordTrace records a fresh execution trace on the closure-compiled form
// without touching the cache; a program that does not compile has no trace,
// and RecordTrace returns the compile error.  Most callers want the cached
// Trace; this entry point exists for benchmarks, tests and audits that
// measure or re-check the recording itself.
func (b *Binding) RecordTrace() (*trace.Trace, error) {
	comp, err := b.Compiled()
	if err != nil {
		return nil, err
	}
	def := DefaultConfig()
	return trace.Record(b.Program, comp, b.seqs, def.MaxInstructions, def.MaxDepth)
}

// PredecodedProgram is a DIR program encoded at one degree and decoded exactly
// once.  It holds only what the degree changes — the binary, its decode costs
// and its fetch geometry — and shares its Binding with every other degree.
// Those forms are immutable: the same instance can back any number of
// concurrent Run calls under any strategy.  The one thing that changes is the
// set of Replayers parked on it between runs (Park, Unpark), which it charges
// in FootprintBytes and which live exactly as long as it does.
type PredecodedProgram struct {
	*Binding
	// Binary is the encoded static representation the costs were measured on.
	Binary *dir.Binary

	costs []dir.DecodeCost // decode cost of each instruction

	// Static fetch geometry of each instruction in the encoded binary: the
	// first level-2 word its bit range touches and how many words it spans.
	// Cost derivations stream these instead of re-walking the bit ranges.
	fetchFirst []int32
	fetchWords []int32

	// mu guards parked, the Replayers parked on the program, oldest first.
	// slices.Delete clears the slots it vacates, so the backing array keeps
	// no dropped or checked-out Replayer reachable.
	mu          sync.Mutex
	parked      []*Replayer
	parkedBytes atomic.Int64 // sum of the parked Replayers' bytes
}

// Predecode binds the program, encodes it at the given degree and predecodes
// the result.
func Predecode(p *dir.Program, degree dir.Degree) (*PredecodedProgram, error) {
	bin, err := dir.Encode(p, degree)
	if err != nil {
		return nil, err
	}
	return PredecodeBinary(bin)
}

// PredecodeBinary binds the binary's program afresh and predecodes the
// binary on that binding.
func PredecodeBinary(bin *dir.Binary) (*PredecodedProgram, error) {
	b, err := Bind(bin.Program, nil)
	if err != nil {
		return nil, err
	}
	return b.PredecodeBinary(bin)
}

// PredecodeBinary decodes every instruction of bin, an encoding of the
// binding's program, once, recording its decode cost and fetch geometry; the
// translation is the binding's, made from the compiled instructions.
func (b *Binding) PredecodeBinary(bin *dir.Binary) (*PredecodedProgram, error) {
	if bin.Program != b.Program {
		return nil, fmt.Errorf("sim: predecode: the binary encodes a different program than the binding")
	}
	pd, err := bin.Predecode()
	if err != nil {
		return nil, err
	}
	pp := &PredecodedProgram{
		Binding:    b,
		Binary:     bin,
		costs:      pd.Costs,
		fetchFirst: make([]int32, len(pd.Instrs)),
		fetchWords: make([]int32, len(pd.Instrs)),
	}
	for pc, in := range pd.Instrs {
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
	return pp, nil
}

// FootprintBytes estimates the resident size of what this degree adds to its
// shared binding: the encoded binary, the recorded decode costs (two machine
// ints per pc), the fetch-geometry tables (two int32 per pc) and the
// Replayers parked on it.
func (pp *PredecodedProgram) FootprintBytes() int {
	return pp.Binary.SizeBytes() + len(pp.costs)*(16+8) + int(pp.parkedBytes.Load())
}

// Unpark removes and returns the most recently parked Replayer of the class
// (strategy, cfg.Normalize()), or nil when none is parked.  Configurations
// that select identical behaviour are one class.
func (pp *PredecodedProgram) Unpark(strategy Strategy, cfg Config) *Replayer {
	cfg = cfg.Normalize()
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for i := len(pp.parked) - 1; i >= 0; i-- {
		if r := pp.parked[i]; r.strategy == strategy && r.cfg == cfg {
			pp.parkedBytes.Add(-int64(r.bytes))
			pp.parked = slices.Delete(pp.parked, i, i+1)
			return r
		}
	}
	return nil
}

// Park keeps r, a Replayer of this program, for a later Unpark.  At most max
// stay parked: past that the oldest is dropped, and Park reports it.
func (pp *PredecodedProgram) Park(r *Replayer, max int) (dropped bool) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.parked = append(pp.parked, r)
	pp.parkedBytes.Add(int64(r.bytes))
	if len(pp.parked) <= max {
		return false
	}
	pp.parkedBytes.Add(-int64(pp.parked[0].bytes))
	pp.parked = slices.Delete(pp.parked, 0, 1)
	return true
}

// Degree returns the encoding degree of the predecoded binary.
func (pp *PredecodedProgram) Degree() dir.Degree { return pp.Binary.Degree }

// DecodeCost returns the measured cost of decoding the instruction at pc from
// the binary, as an interpreter without this fast path would pay it on every
// execution.
func (pp *PredecodedProgram) DecodeCost(pc int) dir.DecodeCost { return pp.costs[pc] }

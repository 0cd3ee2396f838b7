package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"uhm/internal/compile"
	"uhm/internal/dir"
	"uhm/internal/hlr"
	"uhm/internal/sim"
	"uhm/internal/trace"
	"uhm/internal/workload"
)

// Re-exported configuration types, so callers need only import core for the
// common pipeline.
type (
	// Level is the semantic level of the compiled DIR.
	Level = compile.Level
	// Degree is the degree of encoding of the static representation.
	Degree = dir.Degree
	// Strategy is the machine organisation simulated.
	Strategy = sim.Strategy
	// Config is the simulation configuration.
	Config = sim.Config
	// Report is the outcome of one simulated run.
	Report = sim.Report
)

// Re-exported enumerators.
const (
	LevelStack = compile.LevelStack
	LevelMem2  = compile.LevelMem2
	LevelMem3  = compile.LevelMem3

	DegreePacked  = dir.DegreePacked
	DegreeContour = dir.DegreeContour
	DegreeHuffman = dir.DegreeHuffman
	DegreePair    = dir.DegreePair

	Conventional = sim.Conventional
	WithDTB      = sim.WithDTB
	WithCache    = sim.WithCache
	Expanded     = sim.Expanded
	Compiled     = sim.Compiled
)

// DefaultConfig returns the paper's §7 reference configuration.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Levels lists the semantic levels.
func Levels() []Level { return compile.Levels() }

// Degrees lists the encoding degrees.
func Degrees() []Degree { return dir.Degrees() }

// Strategies lists the machine organisations.
func Strategies() []Strategy { return sim.Strategies() }

// Workloads lists the built-in workload programs.
func Workloads() []string { return workload.Names() }

// Artifact is a program carried through the pipeline: the parsed HLR, the
// compiled DIR and the semantic level it was compiled at.  An Artifact also
// caches the predecoded form of its DIR at each encoding degree, so sweeps
// that revisit the artifact — every strategy of a comparison, every capacity
// of a DTB sweep, repeated benchmark iterations — decode and translate it
// exactly once.  The cache is safe for concurrent use.
type Artifact struct {
	Name  string
	Level Level
	HLR   *hlr.Program
	DIR   *dir.Program

	// tr is the canonical execution trace rehydrated from a persisted
	// snapshot, adopted by every predecoded form so warm-started artifacts
	// derive reports without re-executing.  It is immutable after Rehydrate
	// and nil on freshly built artifacts.
	tr *trace.Trace

	preMu sync.Mutex
	pre   map[Degree]*predecodeEntry
}

// predecodeEntry dedups predecoding per degree while letting different
// degrees of the same artifact predecode concurrently.  done is set (with
// release semantics) after the build completes, so observers that did not go
// through once.Do — footprint accounting, cache invalidation — can read pp
// without racing the builder or triggering a build themselves.
type predecodeEntry struct {
	once sync.Once
	pp   *sim.PredecodedProgram
	err  error
	done atomic.Bool
}

// Predecoded returns the artifact's shared predecoded program at the given
// encoding degree, encoding, decoding and translating it on first use.  The
// returned program is immutable and shared: it may back any number of
// concurrent simulation runs.
func (a *Artifact) Predecoded(degree Degree) (*sim.PredecodedProgram, error) {
	a.preMu.Lock()
	if a.pre == nil {
		a.pre = make(map[Degree]*predecodeEntry)
	}
	e, ok := a.pre[degree]
	if !ok {
		e = &predecodeEntry{}
		a.pre[degree] = e
	}
	a.preMu.Unlock()
	e.once.Do(func() {
		e.pp, e.err = sim.Predecode(a.DIR, degree)
		if e.err == nil && a.tr != nil {
			e.pp.AdoptTrace(a.tr)
		}
		e.done.Store(true)
	})
	return e.pp, e.err
}

// CachedPredecoded returns the predecoded programs the artifact has built so
// far, without building any.  The service layer uses it to drop pooled
// replayers when the artifact is evicted from the registry.
func (a *Artifact) CachedPredecoded() []*sim.PredecodedProgram {
	a.preMu.Lock()
	defer a.preMu.Unlock()
	var pps []*sim.PredecodedProgram
	for _, e := range a.pre {
		if e.done.Load() && e.err == nil {
			pps = append(pps, e.pp)
		}
	}
	return pps
}

// FootprintBytes estimates the resident size of the artifact and every cached
// form hanging off it: the DIR program plus each predecoded (and possibly
// compiled) degree built so far.  The estimate grows as forms materialise;
// the service registry re-reads it after each request to keep its
// byte-accounted LRU honest.
func (a *Artifact) FootprintBytes() int {
	// The in-memory DIR program: instructions dominate (op, operands,
	// contour, target — a few machine words each), plus the proc and contour
	// tables.
	const instrBytes, tableBytes = 96, 64
	bytes := len(a.DIR.Instrs)*instrBytes +
		(len(a.DIR.Procs)+len(a.DIR.Contours))*tableBytes
	for _, pp := range a.CachedPredecoded() {
		bytes += pp.FootprintBytes()
	}
	return bytes
}

// BuildSource parses, analyses and compiles MiniLang source text.
func BuildSource(name, src string, level Level) (*Artifact, error) {
	prog, err := hlr.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: parse %s: %w", name, err)
	}
	dp, err := compile.Compile(prog, level)
	if err != nil {
		return nil, fmt.Errorf("core: compile %s: %w", name, err)
	}
	return &Artifact{Name: name, Level: level, HLR: prog, DIR: dp}, nil
}

// BuildWorkload builds one of the built-in workload programs.
func BuildWorkload(name string, level Level) (*Artifact, error) {
	src, err := workload.Source(name)
	if err != nil {
		return nil, err
	}
	return BuildSource(name, src, level)
}

// Reference evaluates the artifact's HLR with the tree-walking oracle and
// returns the expected output.
func (a *Artifact) Reference() ([]int64, error) {
	res, err := hlr.Evaluate(a.HLR, hlr.EvalOptions{})
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// Encode emits the artifact's DIR at the given encoding degree.
func (a *Artifact) Encode(degree Degree) (*dir.Binary, error) {
	return dir.Encode(a.DIR, degree)
}

// Disassemble returns the DIR program listing.
func (a *Artifact) Disassemble() string { return a.DIR.Disassemble() }

// Snapshot is the portable form of an Artifact: everything the binary
// interchange container persists.  The DIR program is authoritative and the
// trace is the one piece of binding work a loading process cannot redo
// without executing the program; every encoded degree and the compiled form
// are rebuilt from the DIR program on demand, exactly as a fresh artifact
// builds them.
type Snapshot struct {
	Name  string
	Level Level
	DIR   *dir.Program
	// Trace is the canonical execution trace, when one has been recorded.
	Trace *trace.Trace
}

// Snapshot captures the artifact's persistable state: the DIR program plus
// the trace if one has been recorded or adopted.  It never triggers a
// recording and is safe to call concurrently with requests running on the
// artifact.
func (a *Artifact) Snapshot() *Snapshot {
	return &Snapshot{Name: a.Name, Level: a.Level, DIR: a.DIR, Trace: a.cachedTrace()}
}

// cachedTrace returns the rehydrated trace or the first one a predecoded
// form has recorded, and nil when there is none.
func (a *Artifact) cachedTrace() *trace.Trace {
	if a.tr != nil {
		return a.tr
	}
	for _, pp := range a.CachedPredecoded() {
		if t := pp.CachedTrace(); t != nil {
			return t
		}
	}
	return nil
}

// PersistableForms counts the forms a Snapshot taken now would carry: the
// DIR program, plus the trace once one exists.  The registry's write-through
// compares it against what it last persisted to decide whether an artifact's
// container is worth rewriting, without building the snapshot.
func (a *Artifact) PersistableForms() int {
	if a.cachedTrace() != nil {
		return 2
	}
	return 1
}

// Rehydrate rebuilds an Artifact from a persisted snapshot without re-running
// the compiler: the HLR is re-parsed from the source text (the oracle and the
// conformance paths need it), the DIR program is adopted as-is after
// validation, and the trace is seeded so every predecoded degree adopts it
// instead of re-executing the program.  A snapshot whose trace references
// instructions outside the program is rejected — a malformed container must
// never become a partial artifact.
func Rehydrate(snap *Snapshot, src string) (*Artifact, error) {
	if snap == nil || snap.DIR == nil {
		return nil, fmt.Errorf("core: rehydrate: snapshot has no DIR program")
	}
	if err := snap.DIR.Validate(); err != nil {
		return nil, fmt.Errorf("core: rehydrate %s: %w", snap.Name, err)
	}
	prog, err := hlr.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: rehydrate %s: parse: %w", snap.Name, err)
	}
	a := &Artifact{Name: snap.Name, Level: snap.Level, HLR: prog, DIR: snap.DIR}
	if snap.Trace != nil {
		for _, pc := range snap.Trace.PCs {
			if pc < 0 || int(pc) >= len(snap.DIR.Instrs) {
				return nil, fmt.Errorf("core: rehydrate %s: trace pc %d out of range", snap.Name, pc)
			}
		}
		a.tr = snap.Trace
	}
	return a, nil
}

// RunMode selects how a simulation's cost report is produced: derived from
// the artifact's shared execution trace (the default — the trace-once,
// cost-many fast path, falling back to full simulation whenever the trace
// cannot answer exactly), fully simulated, or both with a field-for-field
// cross-check.
type RunMode int

const (
	// ModeDerived derives reports from the shared execution trace, falling
	// back to full simulation when no exact trace is available.
	ModeDerived RunMode = iota
	// ModeSimulated always runs the full simulation.
	ModeSimulated
	// ModeCrossCheck runs both paths and errors if any report field differs.
	ModeCrossCheck
)

// String names the mode as ParseRunMode accepts it.
func (m RunMode) String() string {
	switch m {
	case ModeDerived:
		return "derived"
	case ModeSimulated:
		return "simulated"
	case ModeCrossCheck:
		return "crosscheck"
	}
	return fmt.Sprintf("RunMode(%d)", int(m))
}

// ParseRunMode parses a RunMode name as accepted on the command line.
func ParseRunMode(s string) (RunMode, error) {
	switch s {
	case "derived":
		return ModeDerived, nil
	case "simulated":
		return ModeSimulated, nil
	case "crosscheck":
		return ModeCrossCheck, nil
	}
	return 0, fmt.Errorf("core: unknown run mode %q (want derived, simulated or crosscheck)", s)
}

// Run simulates the artifact under one machine organisation, sharing the
// artifact's cached predecoded program.  The report is derived from the
// artifact's shared execution trace when the trace can answer exactly, and
// fully simulated otherwise — the two are field-for-field identical, so
// callers need not care which path ran (Report.Derived records it).
func Run(a *Artifact, strategy Strategy, cfg Config) (*Report, error) {
	pp, err := a.Predecoded(cfg.Degree)
	if err != nil {
		return nil, err
	}
	return sim.RunDerived(pp, strategy, cfg)
}

// RunSimulated simulates the artifact under one machine organisation with the
// full interleaved execution-and-costing loop, bypassing the trace fast path.
func RunSimulated(a *Artifact, strategy Strategy, cfg Config) (*Report, error) {
	pp, err := a.Predecoded(cfg.Degree)
	if err != nil {
		return nil, err
	}
	return sim.RunPredecoded(pp, strategy, cfg)
}

// RunCrossChecked runs both the derived and the fully simulated path and
// verifies they agree on every report field; any divergence is an error.  The
// simulated report is returned, so a cross-checked sweep is byte-identical to
// a simulated one.
func RunCrossChecked(a *Artifact, strategy Strategy, cfg Config) (*Report, error) {
	pp, err := a.Predecoded(cfg.Degree)
	if err != nil {
		return nil, err
	}
	simulated, err := sim.RunPredecoded(pp, strategy, cfg)
	if err != nil {
		return nil, err
	}
	derived, err := sim.RunDerived(pp, strategy, cfg)
	if err != nil {
		return nil, err
	}
	if derived.Derived {
		if diff := sim.DiffReports(derived, simulated); diff != "" {
			return nil, fmt.Errorf("core: %s/%v/%v: derived report diverges from simulation: %s",
				a.Name, strategy, cfg.Degree, diff)
		}
	}
	return simulated, nil
}

// Compare simulates the artifact under every organisation and verifies that
// all of them produce the same output.  Every organisation shares the
// artifact's cached predecoded program.
func Compare(a *Artifact, cfg Config) ([]*Report, error) {
	pp, err := a.Predecoded(cfg.Degree)
	if err != nil {
		return nil, err
	}
	return sim.RunAllPredecoded(pp, cfg)
}

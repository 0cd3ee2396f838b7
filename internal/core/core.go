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

// Artifact is a program carried through the pipeline: its MiniLang source,
// the compiled DIR, the semantic level it was compiled at, and the DIR's
// binding — the translation, closures and trace that no degree of encoding
// changes.  An Artifact also caches the predecoded form of its DIR at each
// degree, all on that one binding, so sweeps that revisit the artifact —
// every strategy of a comparison, every degree, repeated benchmark
// iterations — translate, compile and record once and decode once per
// degree.  The cache is safe for concurrent use.
type Artifact struct {
	Name    string
	Level   Level
	Source  string
	DIR     *dir.Program
	Binding *sim.Binding

	pre [dir.NumDegrees]predecodeEntry
}

// predecodeEntry dedups predecoding per degree while letting different
// degrees of the same artifact predecode concurrently.  built is published
// (with release semantics) once a build succeeds, so footprint accounting,
// which does not go through once.Do, can read it without racing the builder
// or triggering a build itself.
type predecodeEntry struct {
	once  sync.Once
	built atomic.Pointer[sim.PredecodedProgram]
	err   error
}

// newArtifact binds the compiled DIR program — seeding the binding with tr,
// a persisted trace, when it is not nil — and wraps it as an Artifact.
func newArtifact(name string, level Level, src string, dp *dir.Program, tr *trace.Trace) (*Artifact, error) {
	b, err := sim.Bind(dp, tr)
	if err != nil {
		return nil, fmt.Errorf("core: bind %s: %w", name, err)
	}
	return &Artifact{Name: name, Level: level, Source: src, DIR: dp, Binding: b}, nil
}

// Predecoded returns the artifact's shared predecoded program at the given
// encoding degree, encoding and decoding it on first use; its translation,
// compiled form and trace are the artifact's binding, shared with every other
// degree.  The returned program is immutable and shared: it may back any
// number of concurrent simulation runs.
func (a *Artifact) Predecoded(degree Degree) (*sim.PredecodedProgram, error) {
	if !degree.Valid() {
		return nil, fmt.Errorf("core: %s: invalid degree %v", a.Name, degree)
	}
	e := &a.pre[degree]
	e.once.Do(func() {
		bin, err := a.Encode(degree)
		var pp *sim.PredecodedProgram
		if err == nil {
			pp, err = a.Binding.PredecodeBinary(bin)
		}
		e.built.Store(pp)
		e.err = err
	})
	return e.built.Load(), e.err
}

// FootprintBytes estimates the resident size of the artifact and every cached
// form hanging off it: the DIR program, the source text, the binding (counted
// once, however many degrees share it) and each degree predecoded so far,
// with the replayers parked on it.
// The estimate grows as forms materialise; the service registry re-reads it
// after each request to keep its byte-accounted LRU honest.
func (a *Artifact) FootprintBytes() int {
	// The in-memory DIR program: instructions dominate (op, operands,
	// contour, target — a few machine words each), plus the proc and contour
	// tables.
	const instrBytes, tableBytes = 96, 64
	bytes := len(a.DIR.Instrs)*instrBytes +
		(len(a.DIR.Procs)+len(a.DIR.Contours))*tableBytes +
		len(a.Source) + a.Binding.FootprintBytes()
	for i := range a.pre {
		if pp := a.pre[i].built.Load(); pp != nil {
			bytes += pp.FootprintBytes()
		}
	}
	return bytes
}

// BuildSource parses, analyses, compiles and binds MiniLang source text.  The
// parsed HLR is not kept: Reference parses the source again when it needs it.
func BuildSource(name, src string, level Level) (*Artifact, error) {
	prog, err := hlr.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: parse %s: %w", name, err)
	}
	dp, err := compile.Compile(prog, level)
	if err != nil {
		return nil, fmt.Errorf("core: compile %s: %w", name, err)
	}
	return newArtifact(name, level, src, dp, nil)
}

// BuildWorkload builds one of the built-in workload programs.
func BuildWorkload(name string, level Level) (*Artifact, error) {
	src, err := workload.Source(name)
	if err != nil {
		return nil, err
	}
	return BuildSource(name, src, level)
}

// Reference parses the artifact's source, evaluates it with the tree-walking
// oracle and returns the expected output.
func (a *Artifact) Reference() ([]int64, error) {
	prog, err := hlr.Parse(a.Source)
	if err != nil {
		return nil, fmt.Errorf("core: parse %s: %w", a.Name, err)
	}
	res, err := hlr.Evaluate(prog, hlr.EvalOptions{})
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
// interchange container persists besides the source.  The DIR program is
// authoritative and the trace is the one piece of binding work a loading
// process cannot redo without executing the program; the translation, every
// encoded degree and the compiled form are rebuilt from the DIR program,
// exactly as a fresh artifact builds them.
type Snapshot struct {
	Name  string
	Level Level
	DIR   *dir.Program
	// Trace is the canonical execution trace, when one has been recorded.
	Trace *trace.Trace
}

// Snapshot captures the artifact's persistable state: the DIR program plus
// its binding's trace if one has been recorded or seeded.  It never triggers
// a recording and is safe to call concurrently with requests running on the
// artifact.
func (a *Artifact) Snapshot() *Snapshot {
	return &Snapshot{Name: a.Name, Level: a.Level, DIR: a.DIR, Trace: a.Binding.CachedTrace()}
}

// PersistableForms counts the forms a Snapshot taken now would carry: the
// DIR program, plus the trace once one exists.  The registry's write-through
// compares it against what it last persisted to decide whether an artifact's
// container is worth rewriting, without building the snapshot.
func (a *Artifact) PersistableForms() int {
	if a.Binding.CachedTrace() != nil {
		return 2
	}
	return 1
}

// Rehydrate rebuilds an Artifact from a persisted snapshot and its source
// text without re-running the parser or the compiler: the DIR program is
// adopted as-is after validation and bound with the snapshot's trace, so
// every predecoded degree derives from it instead of re-executing the
// program.  A snapshot whose trace references instructions outside the
// program is rejected before binding — a malformed container must never
// become a partial artifact.
func Rehydrate(snap *Snapshot, src string) (*Artifact, error) {
	if snap == nil || snap.DIR == nil {
		return nil, fmt.Errorf("core: rehydrate: snapshot has no DIR program")
	}
	if err := snap.DIR.Validate(); err != nil {
		return nil, fmt.Errorf("core: rehydrate %s: %w", snap.Name, err)
	}
	if snap.Trace != nil {
		for _, pc := range snap.Trace.PCs {
			if pc < 0 || int(pc) >= len(snap.DIR.Instrs) {
				return nil, fmt.Errorf("core: rehydrate %s: trace pc %d out of range", snap.Name, pc)
			}
		}
	}
	return newArtifact(snap.Name, snap.Level, src, snap.DIR, snap.Trace)
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

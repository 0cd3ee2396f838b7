package sim

import (
	"errors"
	"fmt"
	"slices"

	"uhm/internal/cache"
	"uhm/internal/dir"
	"uhm/internal/dtb"
	"uhm/internal/host"
	"uhm/internal/memory"
	"uhm/internal/psder"
)

// Strategy selects the machine organisation.
type Strategy int

const (
	// Conventional is the paper's organisation 1: no buffering at all.
	Conventional Strategy = iota
	// WithDTB is organisation 2: a dynamic translation buffer.
	WithDTB
	// WithCache is organisation 3: an instruction cache on level-2 memory.
	WithCache
	// Expanded is the §3.1 baseline: the program compiled all the way down
	// to directly executable (PSDER) form and stored expanded in level 2.
	Expanded
	// Compiled is the fifth organisation, beyond the paper's four: the
	// program lowered once to direct-threaded closures (dir.Compile) with
	// every operand, contour offset and branch target resolved at compile
	// time, executed straight from level-1 memory.
	Compiled

	strategyCount
)

// Strategies lists every strategy.
func Strategies() []Strategy {
	return []Strategy{Conventional, WithDTB, WithCache, Expanded, Compiled}
}

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Conventional:
		return "conventional"
	case WithDTB:
		return "dtb"
	case WithCache:
		return "cache"
	case Expanded:
		return "expanded"
	case Compiled:
		return "compiled"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Valid reports whether the strategy is defined.
func (s Strategy) Valid() bool { return s >= 0 && s < strategyCount }

// Config parameterises a simulation.
type Config struct {
	Memory memory.Config
	DTB    dtb.Config
	Cache  cache.Config
	// Degree is the encoding degree of the static DIR representation.
	Degree dir.Degree
	// MaxInstructions bounds the run (0 selects a default).
	MaxInstructions int64
	// MaxDepth bounds the activation stack (0 selects a default).
	MaxDepth int
}

// DefaultConfig mirrors the paper's §7 reference point: t1=1, tD=2, t2=10, a
// 4096-byte cache and a DTB with the same associative geometry, and a
// Huffman-encoded static representation.
func DefaultConfig() Config {
	return Config{
		Memory:          memory.DefaultConfig(),
		DTB:             dtb.DefaultConfig(),
		Cache:           cache.DefaultConfig(),
		Degree:          dir.DegreeHuffman,
		MaxInstructions: 20_000_000,
		MaxDepth:        10_000,
	}
}

// Normalize returns the configuration with every defaulted field resolved
// (zero MaxInstructions and MaxDepth select the defaults), so two
// configurations that select identical behaviour compare equal.
func (c Config) Normalize() Config {
	if c.MaxInstructions <= 0 {
		c.MaxInstructions = DefaultConfig().MaxInstructions
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = DefaultConfig().MaxDepth
	}
	return c
}

// Measured are the §7 model parameters as actually observed during the run.
type Measured struct {
	D  float64 // average decode steps per decoded instruction
	G  float64 // average generate-and-store cycles per translation
	X  float64 // average semantic cycles per instruction interpreted
	S1 float64 // average PSDER words per instruction (buffer references)
	S2 float64 // average level-2 words per DIR instruction fetch
	HD float64 // DTB hit ratio
	HC float64 // cache hit ratio
}

// Report is the outcome of one simulated run.  A Replayer's report is
// read-only, valid until its next Replay, and a derived one's Output aliases
// the shared trace; Clone it to keep or change it.
type Report struct {
	Strategy Strategy
	Degree   dir.Degree

	// Output is the program's observable output (must agree across
	// strategies).
	Output []int64
	// Instructions is the number of DIR instructions interpreted.
	Instructions int64

	// Cycle breakdown, in level-1 cycle units.
	FetchCycles     memory.Cycles // instruction fetches from L2, cache and DTB
	DecodeCycles    memory.Cycles // DIR field extraction and code-tree walks
	TranslateCycles memory.Cycles // PSDER generation and installation (DTB only)
	SemanticCycles  memory.Cycles // IU1 + IU2 execution of the semantics
	TotalCycles     memory.Cycles

	// PerInstruction is TotalCycles / Instructions — directly comparable to
	// the paper's T values.
	PerInstruction float64

	// Structure sizes.
	StaticBits       int // encoded DIR program size
	CodebookBits     int // decoder tables (part of the interpreter)
	InterpreterWords int // semantic routine library footprint (level 1)
	ExpandedWords    int // full PSDER expansion (only for Expanded strategy)
	CompiledWords    int // native closure-code footprint (only for Compiled strategy)

	Measured   Measured
	DTBStats   dtb.Stats
	CacheStats cache.Stats
	Memory     memory.Stats

	// Derived reports that this report was derived from the shared execution
	// trace (Replayer.Derive) rather than produced by a full simulation.  It
	// is the only field the two paths may differ on — DiffReports compares
	// every other field exactly.
	Derived bool
}

// Clone returns a deep copy of the report.  Replayer.Replay and Derive
// return a report owned by the Replayer and overwritten by its next Replay;
// callers that hand the Replayer back to a pool (or replay again) while
// keeping the report must clone it first.
func (r *Report) Clone() *Report {
	c := *r
	c.Output = slices.Clone(r.Output)
	return &c
}

// Errors.
var (
	// ErrInstructionLimit is returned when the run exceeds MaxInstructions.
	ErrInstructionLimit = errors.New("sim: instruction limit exceeded")
	// ErrOutputMismatch is returned by RunAllPredecoded and VerifyOutputs
	// when strategies disagree.
	ErrOutputMismatch = errors.New("sim: strategies produced different output")
)

// Run executes the program under the given strategy.  It predecodes the
// program first; callers running several strategies or sweeps over the same
// program should Predecode once themselves and use RunPredecoded.
func Run(p *dir.Program, strategy Strategy, cfg Config) (*Report, error) {
	if !strategy.Valid() {
		return nil, fmt.Errorf("sim: invalid strategy %d", int(strategy))
	}
	pp, err := Predecode(p, cfg.Degree)
	if err != nil {
		return nil, err
	}
	return RunPredecoded(pp, strategy, cfg)
}

// RunPredecoded executes a predecoded program under the given strategy.  The
// predecoded program is only read, so any number of RunPredecoded calls may
// share one instance concurrently.  cfg.Degree must match the degree the
// program was predecoded at, since the reported costs were measured on that
// binary.
func RunPredecoded(pp *PredecodedProgram, strategy Strategy, cfg Config) (*Report, error) {
	r, err := NewReplayer(pp, strategy, cfg)
	if err != nil {
		return nil, err
	}
	return r.Replay()
}

// Replayer runs one predecoded program under one strategy any number of
// times.  Every structure a run needs — the memory hierarchy and its
// segments, the DTB or cache, the host machine, the report — is allocated
// once by NewReplayer; Replay resets and reuses them, so the steady-state
// replay loop allocates nothing.  The hierarchy, DTB and cache model capacity,
// placement and references only, never contents, so building a Replayer
// costs a few KiB whatever the configured memory sizes.  Sweeps that re-run
// the same configuration (repeated rounds, measurement loops) use a Replayer;
// one-shot callers use RunPredecoded, which is a NewReplayer + Replay pair.
// Derive streams the shared trace once and holds the read-only report until
// the next Replay, so a Replayer parked on its program between requests
// (PredecodedProgram.Park) answers repeats without re-binding.
//
// A Replayer is not safe for concurrent use; concurrent runs should each
// construct their own (the predecoded program itself is safely shared).
type Replayer struct {
	cfg      Config
	strategy Strategy
	pp       *PredecodedProgram

	hier    *memory.Hierarchy
	dirSeg  *memory.Segment
	buf     *dtb.DTB
	icache  *cache.Cache
	machine *host.Machine

	// Compiled-strategy structures: the shared immutable compiled program
	// and this Replayer's private run-time state.
	compiled *dir.CompiledProgram
	cstate   *dir.MachineState

	base    Report // setup-time report fields, copied into report by Replay
	report  Report
	derived bool // report holds a derivation, which Derive returns until the next Replay

	// bytes estimates the heap NewReplayer built (see replayerFixedBytes),
	// which a parked Replayer is charged in its program's footprint.
	bytes int
}

// Heap estimates of what NewReplayer allocates, from allocation measurements
// under DefaultConfig on the built-in workloads: every organisation builds
// the Replayer and its two reports, the memory hierarchy with its level map
// and segments, and the run-time state, whose main frame adds a machine word
// per slot; a DTB entry holds validity, tag, overflow blocks, length and
// recency, a cache directory line validity, tag and recency, and each of
// their sets adds a slice header.
const (
	replayerFixedBytes = 1600
	dtbEntryBytes      = 40
	cacheLineBytes     = 24
	setHeaderBytes     = 24
)

// NewReplayer validates the configuration and builds every structure the
// replay loop needs.
func NewReplayer(pp *PredecodedProgram, strategy Strategy, cfg Config) (*Replayer, error) {
	if !strategy.Valid() {
		return nil, fmt.Errorf("sim: invalid strategy %d", int(strategy))
	}
	if cfg.Degree != pp.Degree() {
		return nil, fmt.Errorf("sim: config degree %v does not match predecoded degree %v",
			cfg.Degree, pp.Degree())
	}
	cfg = cfg.Normalize()
	r := &Replayer{cfg: cfg, strategy: strategy, pp: pp}

	p, bin := pp.Program, pp.Binary
	r.bytes = replayerFixedBytes + 8*p.Procs[0].FrameSlots
	hier, err := memory.New(cfg.Memory)
	if err != nil {
		return nil, err
	}
	r.hier = hier

	// Level-2 segment holding the static DIR representation (its bits stay in
	// bin), rounded up to a whole number of words so the final
	// partially-filled word is fetchable.
	dirBytes := (bin.SizeBytes() + memory.WordBytes - 1) / memory.WordBytes * memory.WordBytes
	r.dirSeg, err = hier.Allocate(memory.Level2, "dir-program", max(dirBytes, memory.WordBytes))
	if err != nil {
		return nil, err
	}
	// Level-1 segment holding the interpreter: the semantic-routine library
	// plus the decoder's tables.  The compiled organisation carries neither —
	// the routines are compiled into its native code (counted by
	// CompiledWords) and nothing is decoded at run time — so it allocates no
	// interpreter segment and reports no interpreter footprint.
	if strategy != Compiled {
		interpBytes := psder.LibraryFootprintWords()*memory.WordBytes + (bin.CodebookBits()+7)/8
		if _, err := hier.Allocate(memory.Level1, "interpreter", interpBytes); err != nil {
			return nil, err
		}
	}

	r.base = Report{
		Strategy:     strategy,
		Degree:       cfg.Degree,
		StaticBits:   bin.SizeBits(),
		CodebookBits: bin.CodebookBits(),
	}
	if strategy != Compiled {
		r.base.InterpreterWords = psder.LibraryFootprintWords()
	}

	switch strategy {
	case WithDTB:
		r.buf, err = dtb.New(cfg.DTB)
		if err != nil {
			return nil, err
		}
		// The buffer array occupies level-1 memory.
		if _, err := hier.Allocate(memory.Level1, "dtb-buffer", cfg.DTB.CapacityBytes()); err != nil {
			return nil, err
		}
		r.bytes += cfg.DTB.Entries*dtbEntryBytes + cfg.DTB.Entries/cfg.DTB.Assoc*setHeaderBytes
	case WithCache:
		r.icache, err = cache.New(cfg.Cache)
		if err != nil {
			return nil, err
		}
		if _, err := hier.Allocate(memory.Level1, "cache-data", cfg.Cache.CapacityBytes); err != nil {
			return nil, err
		}
		lines := cfg.Cache.CapacityBytes / cfg.Cache.LineBytes
		r.bytes += lines*cacheLineBytes + lines/cfg.Cache.Assoc*setHeaderBytes
	case Expanded:
		r.base.ExpandedWords = pp.ExpandedWords()
	case Compiled:
		comp, err := pp.Compiled()
		if err != nil {
			return nil, err
		}
		r.compiled = comp
		r.cstate = dir.NewMachineState(p)
		r.base.CompiledWords = comp.FootprintWords()
		// The compiled strategy executes native closures over the shared
		// run-time state directly; it needs no host machine.
		return r, nil
	}

	r.machine = host.New(p, host.Options{MaxDepth: cfg.MaxDepth})
	return r, nil
}

// Replay runs the program once, reusing every structure built by NewReplayer.
// The returned report (and its Output slice) is owned by the Replayer and
// overwritten by the next Replay or Derive; callers that keep it across runs
// must copy it.
func (r *Replayer) Replay() (*Report, error) {
	r.derived = false
	r.hier.ResetStats()
	if r.machine != nil {
		r.machine.Reset()
	}
	if r.cstate != nil {
		r.cstate.Reset()
	}
	if r.buf != nil {
		r.buf.Reset()
	}
	if r.icache != nil {
		r.icache.Reset()
	}
	r.report = r.base
	if err := r.run(); err != nil {
		return nil, err
	}
	return &r.report, nil
}

// run is the replay loop proper.
func (r *Replayer) run() error {
	if r.strategy == Compiled {
		return r.runCompiled()
	}
	p := r.pp.Program
	bin := r.pp.Binary
	hier, dirSeg := r.hier, r.dirSeg
	buf, icache, machine := r.buf, r.icache, r.machine
	report := &r.report

	var decodeSteps, decodedInstrs int64
	var translateOps, translations int64
	var psderWordsFetched, l2Fetches int64

	pc := p.Procs[0].Entry
	for {
		if report.Instructions >= r.cfg.MaxInstructions {
			return fmt.Errorf("%w (%d)", ErrInstructionLimit, r.cfg.MaxInstructions)
		}
		report.Instructions++

		seq := r.pp.Sequence(pc)
		switch r.strategy {
		case Conventional:
			words, err := r.fetchFromLevel2(dirSeg, bin, pc, nil)
			if err != nil {
				return err
			}
			report.FetchCycles += words
			l2Fetches++
			// Decode and dispatch: the predecoded cost of this pc, charged on
			// every execution as the interpreter would pay it.
			steps := r.pp.DecodeCost(pc).Steps
			decodeSteps += int64(steps)
			decodedInstrs++
			report.DecodeCycles += memory.Cycles(steps)

		case WithCache:
			words, err := r.fetchFromLevel2(dirSeg, bin, pc, icache)
			if err != nil {
				return err
			}
			report.FetchCycles += words
			l2Fetches++
			steps := r.pp.DecodeCost(pc).Steps
			decodeSteps += int64(steps)
			decodedInstrs++
			report.DecodeCycles += memory.Cycles(steps)

		case WithDTB:
			words, hit := buf.Lookup(uint64(pc))
			if hit {
				// Fetch the PSDER version from the buffer array (s1 refs at
				// tD).  The resident words are this pc's translation, so the
				// shared predecoded sequence is dispatched directly.
				report.FetchCycles += hier.ChargeBuffer(int64(words))
				psderWordsFetched += int64(words)
			} else {
				// Miss: trap through DTRPOINT to the dynamic translation
				// routine (Figure 4): fetch the DIR instruction from level 2,
				// decode it, generate the PSDER translation and store it in
				// the DTB, then execute it.
				w2, err := r.fetchFromLevel2(dirSeg, bin, pc, nil)
				if err != nil {
					return err
				}
				report.FetchCycles += w2
				l2Fetches++
				steps := r.pp.DecodeCost(pc).Steps
				decodeSteps += int64(steps)
				decodedInstrs++
				report.DecodeCycles += memory.Cycles(steps)

				// Generation: one cycle per emitted word; storing: one
				// buffer-array write per word (one word per short-format
				// instruction).
				n := seq.Words()
				genCycles := memory.Cycles(n)
				storeCycles := hier.ChargeBuffer(int64(n))
				report.TranslateCycles += genCycles + storeCycles
				translateOps += int64(genCycles + storeCycles)
				translations++
				if err := buf.Install(uint64(pc), n); err != nil &&
					!errors.Is(err, dtb.ErrTooLarge) && !errors.Is(err, dtb.ErrNoOverflow) {
					return err
				}
				// Fetch the freshly installed translation from the buffer
				// array, as the INTERP hit path would.
				report.FetchCycles += hier.ChargeBuffer(int64(n))
				psderWordsFetched += int64(n)
			}

		case Expanded:
			// The expanded representation lives in level 2: one reference
			// per PSDER word.
			report.FetchCycles += memory.Cycles(seq.Words()) * r.cfg.Memory.Level2Time
			psderWordsFetched += int64(seq.Words())
		}

		res, err := machine.ExecSequence(seq)
		if err != nil {
			return fmt.Errorf("sim: pc %d (%s): %w", pc, p.Instrs[pc], err)
		}
		report.SemanticCycles += memory.Cycles(res.SemanticCycles)
		if res.Halted {
			break
		}
		pc = res.NextPC
	}

	report.Output = machine.Output()
	report.Memory = hier.Stats()
	if buf != nil {
		report.DTBStats = buf.Stats()
		report.Measured.HD = buf.Stats().HitRatio()
	}
	if icache != nil {
		report.CacheStats = icache.Stats()
		report.Measured.HC = icache.Stats().HitRatio()
	}
	report.TotalCycles = report.FetchCycles + report.DecodeCycles + report.TranslateCycles + report.SemanticCycles
	if report.Instructions > 0 {
		report.PerInstruction = float64(report.TotalCycles) / float64(report.Instructions)
		report.Measured.X = float64(report.SemanticCycles) / float64(report.Instructions)
	}
	if decodedInstrs > 0 {
		report.Measured.D = float64(decodeSteps) / float64(decodedInstrs)
	}
	if translations > 0 {
		report.Measured.G = float64(translateOps) / float64(translations)
	}
	if report.Instructions > 0 && psderWordsFetched > 0 {
		report.Measured.S1 = float64(psderWordsFetched) / float64(report.Instructions)
	}
	// Every level-2 reference in this simulation is a DIR instruction word
	// fetch, so S2 falls straight out of the memory statistics.
	if l2Fetches > 0 {
		report.Measured.S2 = float64(report.Memory.Level2Refs) / float64(l2Fetches)
	}
	return nil
}

// runCompiled is the replay loop of the Compiled organisation.  The program
// was lowered once to direct-threaded closures (dir.Compile), so the loop
// performs no fetch-decode-translate work at all: dir.CompiledProgram.Run
// retires instructions and accumulates the native cost accounting, and this
// wrapper converts it to the report's cycle categories.  Native code is
// resident in level-1 memory; each compiled op dispatched is charged one
// level-1 reference through the hierarchy (a fused superinstruction is a
// single fetch — binding two DIR instructions into one native dispatch is
// exactly what fusion buys), so Report.Memory agrees with the cycle
// breakdown.  Like the expanded organisation's PSDER image, the native code
// is not byte-materialised in a segment; its footprint is reported as
// CompiledWords.  Decode and translate cycles are zero by construction.
func (r *Replayer) runCompiled() error {
	report := &r.report
	stats, err := r.compiled.Run(r.cstate, r.cfg.MaxInstructions, r.cfg.MaxDepth)
	if err != nil {
		if errors.Is(err, dir.ErrStepLimit) {
			return fmt.Errorf("%w (%d)", ErrInstructionLimit, r.cfg.MaxInstructions)
		}
		return fmt.Errorf("sim: %w", err)
	}
	report.Instructions = stats.Instructions
	report.FetchCycles = r.hier.ChargeLevel1(stats.Fetches)
	report.SemanticCycles = memory.Cycles(stats.SemanticCost)
	report.Output = r.cstate.Output()
	report.Memory = r.hier.Stats()
	report.TotalCycles = report.FetchCycles + report.SemanticCycles
	if report.Instructions > 0 {
		report.PerInstruction = float64(report.TotalCycles) / float64(report.Instructions)
		report.Measured.X = float64(report.SemanticCycles) / float64(report.Instructions)
	}
	return nil
}

// fetchFromLevel2 charges the cost of fetching the encoded DIR instruction at
// index pc.  When icache is non-nil each touched word goes through the cache:
// a hit costs a buffer access, a miss costs a level-2 access.  The returned
// value is the cycles charged.
func (r *Replayer) fetchFromLevel2(seg *memory.Segment, bin *dir.Binary, pc int, icache *cache.Cache) (memory.Cycles, error) {
	offset, length, err := bin.InstrBitRange(pc)
	if err != nil {
		return 0, err
	}
	if length == 0 {
		length = 1
	}
	firstWord := offset / (memory.WordBytes * 8)
	lastWord := (offset + length - 1) / (memory.WordBytes * 8)
	var total memory.Cycles
	for w := firstWord; w <= lastWord; w++ {
		if icache != nil {
			addr := uint64(w * memory.WordBytes)
			if icache.Access(addr) {
				// Cache hit: served at buffer speed.
				total += r.cfg.Memory.BufferTime
				continue
			}
		}
		cycles, err := seg.ChargeWord(w)
		if err != nil {
			return total, err
		}
		total += cycles
	}
	return total, nil
}

// RunAllPredecoded runs every strategy on one shared predecoded program and
// verifies that all of them produce identical output (they share the
// semantic-routine library, so anything else is a bug).  Reports are
// returned in Strategies() order.
func RunAllPredecoded(pp *PredecodedProgram, cfg Config) ([]*Report, error) {
	var reports []*Report
	for _, s := range Strategies() {
		rep, err := RunPredecoded(pp, s, cfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", s, err)
		}
		reports = append(reports, rep)
	}
	if err := VerifyOutputs(reports); err != nil {
		return reports, err
	}
	return reports, nil
}

// VerifyOutputs checks that every report produced the same program output as
// the first, returning ErrOutputMismatch otherwise.
func VerifyOutputs(reports []*Report) error {
	if len(reports) == 0 {
		return nil
	}
	for _, rep := range reports[1:] {
		if !slices.Equal(rep.Output, reports[0].Output) {
			return fmt.Errorf("%w: %v produced %v, %v produced %v",
				ErrOutputMismatch, reports[0].Strategy, reports[0].Output, rep.Strategy, rep.Output)
		}
	}
	return nil
}

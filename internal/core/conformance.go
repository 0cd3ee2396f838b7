// Conformance: the differential oracle behind the paper's equivalence
// invariant.  Every organisation (conventional, DTB, cache, expanded) at
// every semantic level and degree of encoding must compute the same program
// output, differing only in cost.  This file checks that invariant — plus the
// static ones it rests on (encode→decode round-trip fidelity, replay
// determinism, instruction-count agreement between the reference DIR
// interpreter and the simulator) — for arbitrary MiniLang source, and sweeps
// it over the seeded program generator of internal/workload/gen.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"uhm/internal/compile"
	"uhm/internal/dir"
	"uhm/internal/hlr"
	"uhm/internal/sim"
	"uhm/internal/workload/gen"
)

// Divergence is one violated invariant at one point of the cross-product.
type Divergence struct {
	Name     string
	Level    Level
	Degree   Degree
	Strategy Strategy
	// HasDegree/HasStrategy report whether Degree/Strategy identify the
	// point (level-only checks such as the reference DIR execution carry
	// neither).
	HasDegree   bool
	HasStrategy bool
	// Kind labels the violated invariant.
	Kind string
	// Detail is a human-readable description of the disagreement.
	Detail string
}

// Divergence kinds.
const (
	DivergeDirExec    = "dir-exec"    // reference DIR interpreter failed or disagreed with the hlr oracle
	DivergeEncode     = "encode"      // binary emission failed
	DivergeDecode     = "decode"      // decoding failed or decoded instructions differ from the compiled ones
	DivergeRoundTrip  = "roundtrip"   // re-encoding the decoded program is not bit-identical
	DivergeSimOutput  = "sim-output"  // a strategy's output differs from the hlr oracle
	DivergeSimCount   = "sim-count"   // a strategy's instruction count differs from the reference DIR count
	DivergeReplay     = "replay"      // a second Replay of the same Replayer differs from the first
	DivergeFreshRun   = "fresh-run"   // sim.Run disagrees with the Replayer on the same point
	DivergeSimError   = "sim-error"   // a strategy failed outright
	DivergeCompile    = "compile"     // compilation failed at one level
	DivergeOutputSize = "output-size" // a strategy printed a different number of values
	DivergeDerived    = "derived"     // the trace-derived report differs from the simulated one
)

func (d Divergence) String() string {
	site := fmt.Sprintf("level=%s", d.Level)
	if d.HasDegree {
		site += fmt.Sprintf(" degree=%s", d.Degree)
	}
	if d.HasStrategy {
		site += fmt.Sprintf(" strategy=%s", d.Strategy)
	}
	return fmt.Sprintf("%s: [%s] %s: %s", d.Name, site, d.Kind, d.Detail)
}

// conformanceMaxInstructions caps each simulated run; generated programs are
// validated far below this, so hitting it is itself a signal.
const conformanceMaxInstructions = 10_000_000

// conformanceOracleMaxSteps bounds the oracle evaluation.  It sits well above
// the generator's validation budget but far below the evaluator's 50M-step
// default, so minimizer candidates that lost their termination guarantee (a
// deleted loop step, say) are rejected in milliseconds rather than grinding
// out the full default budget on every candidate edit.
const conformanceOracleMaxSteps = 5_000_000

// CheckConformance runs one MiniLang source program through the full
// cross-product — every semantic level, every encoding degree, every machine
// organisation, plus the predecoded/Replayer paths — and returns every
// violated invariant.  A nil, nil return means the program conforms.  The
// returned error reports infrastructure problems (unparsable source, oracle
// failure), not divergences.
func CheckConformance(name, src string, cfg Config) ([]Divergence, error) {
	prog, err := hlr.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: conformance %s: %w", name, err)
	}
	oracle, err := hlr.Evaluate(prog, hlr.EvalOptions{MaxSteps: conformanceOracleMaxSteps})
	if err != nil {
		return nil, fmt.Errorf("core: conformance %s: oracle: %w", name, err)
	}
	cfg.MaxInstructions = conformanceMaxInstructions

	var divs []Divergence
	for _, level := range Levels() {
		divs = append(divs, checkLevel(name, prog, oracle.Output, level, cfg)...)
	}
	return divs, nil
}

func checkLevel(name string, prog *hlr.Program, want []int64, level Level, cfg Config) []Divergence {
	var divs []Divergence
	report := func(d Divergence) {
		d.Name = name
		d.Level = level
		divs = append(divs, d)
	}

	dp, err := compile.Compile(prog, level)
	if err != nil {
		report(Divergence{Kind: DivergeCompile, Detail: err.Error()})
		return divs
	}

	// Invariant (a) at the reference-interpreter layer: the untimed DIR
	// executor must reproduce the hlr oracle's output.  Its dynamic
	// instruction count anchors invariant (c) below.
	execRes, err := dir.Execute(dp, dir.ExecOptions{MaxSteps: conformanceMaxInstructions})
	if err != nil {
		report(Divergence{Kind: DivergeDirExec, Detail: fmt.Sprintf("reference DIR execution failed: %v", err)})
		return divs
	}
	if !slices.Equal(execRes.Output, want) {
		report(Divergence{Kind: DivergeDirExec,
			Detail: fmt.Sprintf("reference DIR output %v, oracle %v", abbrev(execRes.Output), abbrev(want))})
	}

	// The translation, closures and trace depend only on the DIR, so the
	// level binds once and every degree predecodes on that binding.
	b, err := sim.Bind(dp, nil)
	if err != nil {
		report(Divergence{Kind: DivergeDecode, Detail: fmt.Sprintf("bind for simulation: %v", err)})
		return divs
	}
	for _, degree := range Degrees() {
		divs = append(divs, checkDegree(name, b, want, execRes.Executed, level, degree, cfg)...)
	}
	return divs
}

func checkDegree(name string, b *sim.Binding, want []int64, wantInstrs int64,
	level Level, degree Degree, cfg Config) []Divergence {
	var divs []Divergence
	report := func(d Divergence) {
		d.Name = name
		d.Level = level
		d.Degree = degree
		d.HasDegree = true
		divs = append(divs, d)
	}

	dp := b.Program
	bin, err := dir.Encode(dp, degree)
	if err != nil {
		report(Divergence{Kind: DivergeEncode, Detail: err.Error()})
		return divs
	}

	// Invariant (b): encode→decode must reproduce the compiled instructions
	// exactly, and re-encoding the decoded program must be bit-identical.
	// This is the gate for decoder faithfulness: the binding translates the
	// compiled instructions, so the simulation never reads the decoded ones.
	pd, err := bin.Predecode()
	if err != nil {
		report(Divergence{Kind: DivergeDecode, Detail: err.Error()})
		return divs
	}
	for i := range dp.Instrs {
		if !instrEqual(dp.Instrs[i], pd.Instrs[i]) {
			report(Divergence{Kind: DivergeDecode,
				Detail: fmt.Sprintf("instruction %d decoded as %q, compiled as %q", i, pd.Instrs[i], dp.Instrs[i])})
			break
		}
	}
	redecoded := &dir.Program{Name: dp.Name, Instrs: pd.Instrs, Procs: dp.Procs, Contours: dp.Contours, Level: dp.Level}
	bin2, err := dir.Encode(redecoded, degree)
	if err != nil {
		report(Divergence{Kind: DivergeRoundTrip, Detail: fmt.Sprintf("re-encoding decoded program: %v", err)})
	} else if bin.SizeBits() != bin2.SizeBits() || !bytes.Equal(bin.Bytes(), bin2.Bytes()) {
		report(Divergence{Kind: DivergeRoundTrip,
			Detail: fmt.Sprintf("re-encoded binary differs: %d bits vs %d bits", bin2.SizeBits(), bin.SizeBits())})
	}

	pp, err := b.PredecodeBinary(bin)
	if err != nil {
		report(Divergence{Kind: DivergeDecode, Detail: fmt.Sprintf("predecode for simulation: %v", err)})
		return divs
	}
	runCfg := cfg
	runCfg.Degree = degree

	// The duplicate-run checks (second Replay, fresh sim.Run) run on one
	// rotating strategy per (level, degree): every (degree, strategy) pair
	// is still covered across a sweep, at a quarter of the duplicate-run
	// cost.
	rotating := Strategies()[(int(level)+int(degree))%len(Strategies())]
	for _, strategy := range Strategies() {
		divs = append(divs, checkStrategy(name, pp, want, wantInstrs, level, degree, strategy,
			strategy == rotating, runCfg)...)
	}

	// The fresh sim.Run path (its own bind, encode and predecode, no reuse)
	// must agree with the Replayer path.
	fresh := rotating
	rep, err := sim.Run(dp, fresh, runCfg)
	if err != nil {
		report(Divergence{Strategy: fresh, HasStrategy: true, Kind: DivergeFreshRun,
			Detail: fmt.Sprintf("sim.Run failed: %v", err)})
	} else {
		if !slices.Equal(rep.Output, want) {
			report(Divergence{Strategy: fresh, HasStrategy: true, Kind: DivergeFreshRun,
				Detail: fmt.Sprintf("sim.Run output %v, oracle %v", abbrev(rep.Output), abbrev(want))})
		}
		if rep.Instructions != wantInstrs {
			report(Divergence{Strategy: fresh, HasStrategy: true, Kind: DivergeFreshRun,
				Detail: fmt.Sprintf("sim.Run executed %d instructions, reference DIR executed %d", rep.Instructions, wantInstrs)})
		}
	}
	return divs
}

func checkStrategy(name string, pp *sim.PredecodedProgram, want []int64, wantInstrs int64,
	level Level, degree Degree, strategy Strategy, replayTwice bool, cfg Config) []Divergence {
	var divs []Divergence
	report := func(kind, detail string) {
		divs = append(divs, Divergence{
			Name: name, Level: level, Degree: degree, Strategy: strategy,
			HasDegree: true, HasStrategy: true, Kind: kind, Detail: detail,
		})
	}

	rp, err := sim.NewReplayer(pp, strategy, cfg)
	if err != nil {
		report(DivergeSimError, fmt.Sprintf("NewReplayer: %v", err))
		return divs
	}
	r1, err := rp.Replay()
	if err != nil {
		report(DivergeSimError, fmt.Sprintf("replay: %v", err))
		return divs
	}
	// The report is owned by the Replayer and overwritten by the next
	// Replay, so the fields compared across replays are copied out.
	out1 := slices.Clone(r1.Output)
	instrs1, cycles1 := r1.Instructions, r1.TotalCycles

	// Invariant (a): output equality against the oracle.
	if len(out1) != len(want) {
		report(DivergeOutputSize, fmt.Sprintf("printed %d values, oracle printed %d", len(out1), len(want)))
	}
	if !slices.Equal(out1, want) {
		report(DivergeSimOutput, fmt.Sprintf("output %v, oracle %v", abbrev(out1), abbrev(want)))
	}
	// Invariant (c): instruction-count agreement with the reference DIR
	// interpreter (and hence across every strategy).
	if instrs1 != wantInstrs {
		report(DivergeSimCount, fmt.Sprintf("executed %d instructions, reference DIR executed %d", instrs1, wantInstrs))
	}

	// Invariant (d), the trace-once/cost-many contract: the report derived
	// from the shared execution trace must equal the simulated one in every
	// field.  Derive overwrites the Replayer-owned report, so the simulated
	// one is cloned first.  A declined trace (ErrNoTrace) is not a
	// divergence — it is the documented fallback —  but any other failure or
	// field difference is.
	sim1 := r1.Clone()
	der, err := rp.Derive()
	if err != nil && !errors.Is(err, sim.ErrNoTrace) {
		report(DivergeDerived, fmt.Sprintf("derive: %v", err))
	} else if err == nil {
		if diff := sim.DiffReports(der, sim1); diff != "" {
			report(DivergeDerived, fmt.Sprintf("derived report differs from simulated: %s", diff))
		}
	}

	// Replay determinism: a second Replay on the reused structures must be
	// byte-identical in output and identical in cost.
	if !replayTwice {
		return divs
	}
	r2, err := rp.Replay()
	if err != nil {
		report(DivergeReplay, fmt.Sprintf("second replay failed: %v", err))
		return divs
	}
	if !slices.Equal(r2.Output, out1) {
		report(DivergeReplay, fmt.Sprintf("second replay output %v, first %v", abbrev(r2.Output), abbrev(out1)))
	}
	if r2.Instructions != instrs1 || r2.TotalCycles != cycles1 {
		report(DivergeReplay, fmt.Sprintf("second replay cost (%d instrs, %d cycles), first (%d, %d)",
			r2.Instructions, r2.TotalCycles, instrs1, cycles1))
	}
	return divs
}

// instrEqual compares the semantically meaningful fields of two instructions.
func instrEqual(a, b dir.Instruction) bool {
	if a.Op != b.Op || a.Contour != b.Contour || len(a.Operands) != len(b.Operands) {
		return false
	}
	for i := range a.Operands {
		if a.Operands[i] != b.Operands[i] {
			return false
		}
	}
	if a.Op.HasTarget() && a.Target != b.Target {
		return false
	}
	if a.Op.IsCall() && (a.Proc != b.Proc || a.NArgs != b.NArgs) {
		return false
	}
	return true
}

// abbrev keeps divergence details readable for long outputs.
func abbrev(v []int64) string {
	const limit = 16
	if len(v) <= limit {
		return fmt.Sprint(v)
	}
	return fmt.Sprintf("%v... (%d values)", v[:limit], len(v))
}

// SeedResult is the conformance outcome of one generated program.
type SeedResult struct {
	Seed int64
	// Archetype is the generator profile that produced the program; empty for
	// the uniform generator.
	Archetype   string
	Name        string
	Source      string
	Divergences []Divergence
}

// generateFor dispatches between the uniform generator (archetype "") and a
// named archetype profile.
func generateFor(archetype string, seed int64) (*gen.Program, error) {
	if archetype == "" {
		return gen.Generate(seed)
	}
	a, err := gen.ArchetypeByName(archetype)
	if err != nil {
		return nil, err
	}
	return a.Generate(seed)
}

// CheckArchetypeSeed generates the named archetype's program for a seed
// (uniform generator when archetype is empty) and checks its conformance.
func CheckArchetypeSeed(archetype string, seed int64, cfg Config) (*SeedResult, error) {
	p, err := generateFor(archetype, seed)
	if err != nil {
		return nil, err
	}
	divs, err := CheckConformance(p.Name, p.Source, cfg)
	if err != nil {
		return nil, err
	}
	return &SeedResult{Seed: seed, Archetype: archetype, Name: p.Name, Source: p.Source, Divergences: divs}, nil
}

// SweepResult summarises a conformance sweep over a seed range.
type SweepResult struct {
	Seeds   int
	Failing []*SeedResult
}

// ConformanceSweepArchetype checks the named generator archetype's programs
// for seeds start..start+n-1 (the uniform generator when archetype is empty),
// up to workers seeds at once (zero or negative: one per CPU), so every new
// program shape immediately feeds the same differential oracle.  After each
// checked seed it reports progress through the optional callback: done
// counts the seeds checked so far and failed those among them that diverged.
// The callback may be invoked concurrently from several workers and must
// synchronize any state it touches.  Failing seeds are returned in ascending
// order.  An infrastructure error aborts the sweep with the lowest failing
// seed's error, as a serial sweep reports it.
func ConformanceSweepArchetype(ctx context.Context, archetype string, start int64, n, workers int, cfg Config,
	progress func(done, failed int)) (*SweepResult, error) {
	if n <= 0 {
		return &SweepResult{}, nil
	}
	var (
		mu           sync.Mutex
		done, failed int
	)
	failing := make([]*SeedResult, n) // by seed offset; nil where the seed conforms
	err := Engine{Workers: workers}.forEach(ctx, n, func(i int) error {
		res, err := CheckArchetypeSeed(archetype, start+int64(i), cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		done++
		if len(res.Divergences) > 0 {
			failing[i] = res
			failed++
		}
		d, f := done, failed
		mu.Unlock()
		if progress != nil {
			progress(d, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	failing = slices.DeleteFunc(failing, func(r *SeedResult) bool { return r == nil })
	return &SweepResult{Seeds: n, Failing: failing}, nil
}

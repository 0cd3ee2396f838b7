package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"uhm/internal/dir"
	"uhm/internal/host"
	"uhm/internal/metrics"
	"uhm/internal/perfmodel"
	"uhm/internal/psder"
	"uhm/internal/translate"
)

// This file contains one entry point per table and figure of the paper's
// evaluation.  Each returns structured data plus a Render helper so
// cmd/uhmbench, the examples and the benchmark harness all print identical
// reports.  The experiment-to-module map lives in DESIGN.md; measured-versus-
// published values are recorded in EXPERIMENTS.md.

// DefaultExperimentWorkloads are the workloads the figure experiments sweep
// when the caller does not choose their own.
func DefaultExperimentWorkloads() []string {
	return []string{"loopsum", "fib", "sieve", "callheavy"}
}

// experiments is the catalogue of named experiments, in the order "all"
// runs them.
var experiments = []string{
	"table1", "table2", "table3",
	"figure1", "figure2", "figure3", "figure4",
	"empirical", "compaction",
	"archsweep", "modelerr",
}

// Experiments lists every experiment name, in the order "all" runs them.
func Experiments() []string { return slices.Clone(experiments) }

// ErrUnknownExperiment is Engine.Experiment's answer to a name outside
// Experiments.
var ErrUnknownExperiment = errors.New("unknown experiment")

// ExperimentOptions are the knobs a named experiment reads: Workload narrows
// the figure experiments to one workload; Archetypes, Programs and Seed shape
// the archsweep and modelerr populations (nil and 0 select the full
// catalogue and the default population size).
type ExperimentOptions struct {
	Workload   string
	Archetypes []string
	Programs   int
	Seed       int64
}

// Experiment runs one named experiment and renders it: the single catalogue
// cmd/uhmbench prints and cmd/uhmd serves.
func (e Engine) Experiment(ctx context.Context, name string, opts ExperimentOptions, cfg Config) (string, error) {
	var workloads []string
	if opts.Workload != "" {
		workloads = []string{opts.Workload}
	}
	switch name {
	case "table1":
		return Table1Report(), nil
	case "table2":
		t, err := e.Table2(ctx)
		return rendered(t, err, (*perfmodel.Table).Render)
	case "table3":
		t, err := e.Table3(ctx)
		return rendered(t, err, (*perfmodel.Table).Render)
	case "figure1":
		rows, err := e.Figure1(ctx, workloads, cfg)
		return rendered(rows, err, RenderFigure1)
	case "figure2":
		org, rows, err := e.Figure2(ctx, opts.Workload, cfg)
		return rendered(rows, err, func(rows []Figure2Row) string { return RenderFigure2(org, rows) })
	case "figure3":
		act, err := e.Figure3(ctx, opts.Workload, cfg)
		return rendered(act, err, RenderFigure3)
	case "figure4":
		stats, err := e.Figure4(ctx, opts.Workload, cfg)
		return rendered(stats, err, RenderFigure4)
	case "empirical":
		rows, err := e.Empirical(ctx, workloads, cfg)
		return rendered(rows, err, RenderEmpirical)
	case "compaction":
		rows, err := e.Compaction(ctx, workloads, LevelStack)
		return rendered(rows, err, RenderCompaction)
	case "archsweep":
		rows, err := e.ArchetypeSweep(ctx, opts.Archetypes, opts.Programs, opts.Seed, cfg)
		return rendered(rows, err, RenderArchetypeSweep)
	case "modelerr":
		v, err := e.ModelValidation(ctx, opts.Archetypes, opts.Programs, opts.Seed, cfg)
		return rendered(v, err, RenderModelValidation)
	}
	return "", fmt.Errorf("%w %q", ErrUnknownExperiment, name)
}

func rendered[T any](v T, err error, render func(T) string) (string, error) {
	if err != nil {
		return "", err
	}
	return render(v), nil
}

// --- Table 1 -------------------------------------------------------------

// Table1Report reproduces Table 1: the equivalence of a PSDER call sequence
// to a PDP-11-type format and a System/360 RX-type format, with bit counts.
func Table1Report() string {
	return dir.Table1Report(dir.DefaultTable1Params())
}

// --- Tables 2 and 3 ------------------------------------------------------

// Table2 regenerates the paper's Table 2 (analytic model) on the default
// parallel engine.
func Table2() *perfmodel.Table {
	t, _ := defaultEngine.Table2(context.Background()) // only fails on ctx cancellation
	return t
}

// Table3 regenerates the paper's Table 3 (analytic model) on the default
// parallel engine.
func Table3() *perfmodel.Table {
	t, _ := defaultEngine.Table3(context.Background()) // only fails on ctx cancellation
	return t
}

// --- Figure 1: the space of program representations ----------------------

// Figure1Row is one point of the representation space: a workload compiled at
// one semantic level and encoded at one degree, with its static size, the
// decoder-table (interpreter) growth, and its simulated interpretation time
// on the conventional organisation.
type Figure1Row struct {
	Workload       string
	Level          Level
	Degree         Degree
	StaticBits     int
	CodebookBits   int
	Instructions   int64
	TotalCycles    int64
	PerInstruction float64
	MeasuredDecode float64
}

// Figure1 sweeps the representation space on the default parallel engine.
func Figure1(workloads []string, cfg Config) ([]Figure1Row, error) {
	return defaultEngine.Figure1(context.Background(), workloads, cfg)
}

// RenderFigure1 formats the sweep in the layout of Figure 1's two axes.
func RenderFigure1(rows []Figure1Row) string {
	tbl := metrics.NewTable(
		"Figure 1: the space of program representations (size falls with encoding degree; time falls with semantic level)",
		"workload", "level", "degree", "static size", "decoder tables", "dyn instrs", "cycles/instr", "decode steps/instr")
	for _, r := range rows {
		tbl.AddRow(r.Workload, r.Level.String(), r.Degree.String(),
			metrics.Bits(r.StaticBits), metrics.Bits(r.CodebookBits),
			fmt.Sprint(r.Instructions), metrics.Float(r.PerInstruction), metrics.Float(r.MeasuredDecode))
	}
	return tbl.Render()
}

// --- Figure 2: organisation and behaviour of the DTB ----------------------

// Figure2Row reports the DTB hit ratio measured for one buffer capacity.
type Figure2Row struct {
	Entries       int
	CapacityBytes int
	HitRatio      float64
	Evictions     int64
	Overflows     int64
}

// Figure2 describes the DTB organisation (Figure 2's arrays) and measures
// its hit ratio across a range of capacities on the default parallel engine.
func Figure2(workloadName string, cfg Config) (string, []Figure2Row, error) {
	return defaultEngine.Figure2(context.Background(), workloadName, cfg)
}

// RenderFigure2 formats the capacity sweep.
func RenderFigure2(organisation string, rows []Figure2Row) string {
	tbl := metrics.NewTable("Figure 2: DTB hit ratio vs capacity (workload instruction working set)",
		"entries", "capacity", "hit ratio", "evictions", "overflow installs")
	for _, r := range rows {
		tbl.AddRow(fmt.Sprint(r.Entries), fmt.Sprintf("%d B", r.CapacityBytes),
			metrics.Percent(r.HitRatio), fmt.Sprint(r.Evictions), fmt.Sprint(r.Overflows))
	}
	return organisation + "\n\n" + tbl.Render()
}

// --- Figure 3: organisation of the universal host machine -----------------

// Figure3Activity summarises per-unit activity of one simulated run: how much
// work IU1 (semantic routines), IU2 (short-format instructions), the IFU
// (instruction fetches) and the memory levels performed.
type Figure3Activity struct {
	Workload        string
	Strategy        Strategy
	Instructions    int64
	ShortOps        map[psder.ShortOp]int64
	Routines        map[psder.RoutineID]int64
	Level1Refs      int64
	Level2Refs      int64
	BufferRefs      int64
	FetchCycles     int64
	DecodeCycles    int64
	TranslateCycles int64
	SemanticCycles  int64
}

// Figure3 runs one workload under the DTB organisation and reports the
// activity of every block in Figure 3's diagram, on the default engine.
func Figure3(workloadName string, cfg Config) (*Figure3Activity, error) {
	return defaultEngine.Figure3(context.Background(), workloadName, cfg)
}

// Figure3 is the engine form of the per-unit activity experiment; the
// workload is resolved through the engine's Build hook, so a registry-backed
// engine reuses the shared artifact.
func (e Engine) Figure3(ctx context.Context, workloadName string, cfg Config) (*Figure3Activity, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workloadName == "" {
		workloadName = "fib"
	}
	art, err := e.buildWorkload(workloadName, LevelStack)
	if err != nil {
		return nil, err
	}
	dp := art.DIR
	// Drive the host machine directly so IU1/IU2 activity can be captured,
	// then run the simulator for the memory-system numbers.
	machine := host.New(dp, host.Options{})
	seqs, err := translate.TranslateProgram(dp)
	if err != nil {
		return nil, err
	}
	pc := dp.Procs[0].Entry
	var instructions int64
	for {
		res, err := machine.ExecSequence(seqs[pc])
		if err != nil {
			return nil, err
		}
		instructions++
		if res.Halted {
			break
		}
		pc = res.NextPC
	}
	rep, err := Run(art, WithDTB, cfg)
	if err != nil {
		return nil, err
	}
	return &Figure3Activity{
		Workload:        workloadName,
		Strategy:        WithDTB,
		Instructions:    rep.Instructions,
		ShortOps:        machine.ShortOpActivity(),
		Routines:        machine.RoutineActivity(),
		Level1Refs:      rep.Memory.Level1Refs,
		Level2Refs:      rep.Memory.Level2Refs,
		BufferRefs:      rep.Memory.BufferRefs,
		FetchCycles:     int64(rep.FetchCycles),
		DecodeCycles:    int64(rep.DecodeCycles),
		TranslateCycles: int64(rep.TranslateCycles),
		SemanticCycles:  int64(rep.SemanticCycles),
	}, nil
}

// RenderFigure3 formats the activity report.
func RenderFigure3(a *Figure3Activity) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: UHM organisation — per-unit activity for %q under the %v organisation\n\n", a.Workload, a.Strategy)
	tbl := metrics.NewTable("Cycle breakdown", "unit", "cycles")
	tbl.AddRow("IFU + memory (instruction fetch)", fmt.Sprint(a.FetchCycles))
	tbl.AddRow("decode (field extraction, code trees)", fmt.Sprint(a.DecodeCycles))
	tbl.AddRow("dynamic translator (generate + store)", fmt.Sprint(a.TranslateCycles))
	tbl.AddRow("IU1 + IU2 (semantic routines)", fmt.Sprint(a.SemanticCycles))
	b.WriteString(tbl.Render())
	b.WriteString("\n")

	refs := metrics.NewTable("Memory references", "array", "references")
	refs.AddRow("level-1 memory", fmt.Sprint(a.Level1Refs))
	refs.AddRow("level-2 memory", fmt.Sprint(a.Level2Refs))
	refs.AddRow("DTB arrays", fmt.Sprint(a.BufferRefs))
	b.WriteString(refs.Render())
	b.WriteString("\n")

	iu2 := metrics.NewTable("IU2 short-format instruction mix", "op", "count")
	var ops []psder.ShortOp
	for op := range a.ShortOps {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		iu2.AddRow(op.String(), fmt.Sprint(a.ShortOps[op]))
	}
	b.WriteString(iu2.Render())
	b.WriteString("\n")

	iu1 := metrics.NewTable("IU1 semantic-routine activity (top 10)", "routine", "calls")
	type rc struct {
		r psder.RoutineID
		n int64
	}
	var rcs []rc
	for r, n := range a.Routines {
		rcs = append(rcs, rc{r, n})
	}
	sort.Slice(rcs, func(i, j int) bool {
		if rcs[i].n != rcs[j].n {
			return rcs[i].n > rcs[j].n
		}
		return rcs[i].r < rcs[j].r
	})
	for i, e := range rcs {
		if i >= 10 {
			break
		}
		iu1.AddRow(e.r.String(), fmt.Sprint(e.n))
	}
	b.WriteString(iu1.Render())
	return b.String()
}

// --- Figure 4: the INTERP instruction ------------------------------------

// Figure4Stats counts the two paths of Figure 4's flow diagram: the hit path
// (translation found in the DTB) and the miss path (trap to the dynamic
// translation routine, generate, store, then execute).
type Figure4Stats struct {
	Workload     string
	Interps      int64 // INTERP executions = DIR instructions interpreted
	HitPath      int64
	MissPath     int64
	HitRatio     float64
	AvgHitCost   float64 // cycles on the hit path (fetch from DTB)
	AvgMissCost  float64 // cycles on the miss path (fetch + decode + translate)
	Installs     int64
	Evictions    int64
	Invalidates  int64
	BufferRefs   int64
	TranslateAvg float64
}

// Figure4 measures the INTERP hit and miss paths on one workload, on the
// default engine.
func Figure4(workloadName string, cfg Config) (*Figure4Stats, error) {
	return defaultEngine.Figure4(context.Background(), workloadName, cfg)
}

// Figure4 is the engine form of the INTERP path experiment; the workload is
// resolved through the engine's Build hook.
func (e Engine) Figure4(ctx context.Context, workloadName string, cfg Config) (*Figure4Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workloadName == "" {
		workloadName = "sieve"
	}
	art, err := e.buildWorkload(workloadName, LevelStack)
	if err != nil {
		return nil, err
	}
	rep, err := Run(art, WithDTB, cfg)
	if err != nil {
		return nil, err
	}
	st := rep.DTBStats
	out := &Figure4Stats{
		Workload:    workloadName,
		Interps:     st.Lookups,
		HitPath:     st.Hits,
		MissPath:    st.Misses,
		HitRatio:    st.HitRatio(),
		Installs:    st.Installs,
		Evictions:   st.Evictions,
		Invalidates: st.Invalidates,
		BufferRefs:  rep.Memory.BufferRefs,
	}
	if st.Hits > 0 {
		// Hit path: fetch of the PSDER words from the buffer array.
		out.AvgHitCost = rep.Measured.S1 * float64(cfg.Memory.BufferTime)
	}
	if st.Misses > 0 {
		out.AvgMissCost = rep.Measured.D + rep.Measured.G +
			rep.Measured.S2*float64(cfg.Memory.Level2Time)
		out.TranslateAvg = rep.Measured.G
	}
	return out, nil
}

// RenderFigure4 formats the INTERP path statistics.
func RenderFigure4(s *Figure4Stats) string {
	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 4: INTERP instruction flow on %q (hit path vs miss/translate path)", s.Workload),
		"quantity", "value")
	tbl.AddRow("INTERP executions", fmt.Sprint(s.Interps))
	tbl.AddRow("hit path taken", fmt.Sprint(s.HitPath))
	tbl.AddRow("miss path taken (trap via DTRPOINT)", fmt.Sprint(s.MissPath))
	tbl.AddRow("hit ratio h_D", metrics.Percent(s.HitRatio))
	tbl.AddRow("avg hit-path cost (cycles)", metrics.Float(s.AvgHitCost))
	tbl.AddRow("avg miss-path cost (cycles)", metrics.Float(s.AvgMissCost))
	tbl.AddRow("translations installed", fmt.Sprint(s.Installs))
	tbl.AddRow("replacements (LRU evictions)", fmt.Sprint(s.Evictions))
	tbl.AddRow("buffer-array references", fmt.Sprint(s.BufferRefs))
	return tbl.Render()
}

// --- Empirical cross-check of Section 7 ----------------------------------

// EmpiricalRow compares the three organisations (plus the expanded baseline)
// on one workload, with the measured model parameters.
type EmpiricalRow struct {
	Workload string
	Reports  []*Report
}

// Empirical runs every organisation on every workload at the configured
// encoding degree, on the default parallel engine.
func Empirical(workloads []string, cfg Config) ([]EmpiricalRow, error) {
	return defaultEngine.Empirical(context.Background(), workloads, cfg)
}

// RenderEmpirical formats the comparison, including the measured counterparts
// of the paper's F2 figure of merit.
func RenderEmpirical(rows []EmpiricalRow) string {
	tbl := metrics.NewTable(
		"Section 7 empirical cross-check: measured cycles per DIR instruction (T) and figures of merit",
		"workload", "strategy", "T (cycles/instr)", "d", "x", "s1", "s2", "hit ratio")
	var b strings.Builder
	for _, row := range rows {
		var conv, withDTB, compiled *Report
		for _, rep := range row.Reports {
			hit := ""
			switch rep.Strategy {
			case WithDTB:
				hit = metrics.Percent(rep.Measured.HD)
				withDTB = rep
			case WithCache:
				hit = metrics.Percent(rep.Measured.HC)
			case Conventional:
				conv = rep
			case Compiled:
				compiled = rep
			}
			tbl.AddRow(row.Workload, rep.Strategy.String(), metrics.Float(rep.PerInstruction),
				metrics.Float(rep.Measured.D), metrics.Float(rep.Measured.X),
				metrics.Float(rep.Measured.S1), metrics.Float(rep.Measured.S2), hit)
		}
		if conv != nil && withDTB != nil && withDTB.PerInstruction > 0 {
			f2 := (conv.PerInstruction - withDTB.PerInstruction) / withDTB.PerInstruction * 100
			fmt.Fprintf(&b, "  %-10s measured F2 (degradation from not using the DTB): %.1f%%\n", row.Workload, f2)
		}
		if withDTB != nil && compiled != nil && compiled.PerInstruction > 0 {
			f3 := (withDTB.PerInstruction - compiled.PerInstruction) / compiled.PerInstruction * 100
			fmt.Fprintf(&b, "  %-10s measured F3 (gain of full compilation over the DTB): %.1f%%\n", row.Workload, f3)
		}
	}
	return tbl.Render() + "\n" + b.String()
}

// --- §3.2 compaction study ------------------------------------------------

// CompactionRow records the static size of one workload at every encoding
// degree, as a fraction of the packed (unencoded) size.
type CompactionRow struct {
	Workload   string
	Level      Level
	Bits       map[Degree]int
	Reduction  map[Degree]float64 // fraction saved relative to DegreePacked
	Expanded   int                // bits of the fully expanded PSDER form
	Interprets map[Degree]int     // codebook bits per degree
}

// Compaction measures the §3.2 claim that encoding reduces program size by
// 25–75 percent, on the default parallel engine.
func Compaction(workloads []string, level Level) ([]CompactionRow, error) {
	return defaultEngine.Compaction(context.Background(), workloads, level)
}

// RenderCompaction formats the compaction study.
func RenderCompaction(rows []CompactionRow) string {
	tbl := metrics.NewTable(
		"Encoding compaction (§3.2): static size by degree, relative to packed fields",
		"workload", "packed", "contour", "huffman", "pair", "saving (pair)", "expanded PSDER")
	for _, r := range rows {
		tbl.AddRow(r.Workload,
			metrics.Bits(r.Bits[DegreePacked]), metrics.Bits(r.Bits[DegreeContour]),
			metrics.Bits(r.Bits[DegreeHuffman]), metrics.Bits(r.Bits[DegreePair]),
			metrics.Percent(r.Reduction[DegreePair]), metrics.Bits(r.Expanded))
	}
	return tbl.Render()
}

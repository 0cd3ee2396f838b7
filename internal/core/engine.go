package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"uhm/internal/dtb"
	"uhm/internal/sim"
)

// Engine runs the experiment grids of experiments.go over a bounded worker
// pool.  The zero value is the parallel engine: one worker per available CPU.
// Engine{Workers: 1} is the serial engine; for every experiment the two
// produce byte-identical reports — results are assembled by grid index, not
// by completion order — so the parallel engine can be validated against the
// serial one cell for cell.
//
// All engine methods are context-cancellable and safe for concurrent use:
// the simulator state of each grid cell is private to its worker, and shared
// inputs (programs, predecoded translations) are immutable.
type Engine struct {
	// Workers bounds the pool.  Zero or negative selects
	// runtime.GOMAXPROCS(0); one runs the grid serially in index order.
	Workers int

	// Build resolves a workload name and level to an Artifact.  Nil selects
	// BuildWorkload, a fresh build per call.  The service layer installs its
	// content-addressed registry lookup here, so experiment sweeps run from
	// the CLI and from the long-running server share one artifact cache and
	// exercise the same code path.
	Build func(name string, level Level) (*Artifact, error)

	// Mode selects how each grid cell's report is produced.  The zero value is
	// ModeDerived: cost reports stream from each artifact's shared execution
	// trace, recorded once, and fall back to full simulation when the trace
	// cannot answer exactly.  ModeSimulated restores the interleaved loop;
	// ModeCrossCheck runs both and fails the sweep on any field divergence.
	Mode RunMode
}

// run produces one grid cell's report under the engine's Mode.
func (e Engine) run(a *Artifact, strategy Strategy, cfg Config) (*Report, error) {
	switch e.Mode {
	case ModeSimulated:
		return RunSimulated(a, strategy, cfg)
	case ModeCrossCheck:
		return RunCrossChecked(a, strategy, cfg)
	default:
		return Run(a, strategy, cfg)
	}
}

func (e Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// buildWorkload resolves a workload through the engine's Build hook, falling
// back to a fresh BuildWorkload.
func (e Engine) buildWorkload(name string, level Level) (*Artifact, error) {
	if e.Build != nil {
		return e.Build(name, level)
	}
	return BuildWorkload(name, level)
}

// forEach runs fn(i) for every i in [0, n) on the engine's pool and returns
// the lowest-index error, matching what a serial sweep would have returned.
// Indices are dispatched in increasing order; once a worker takes an index it
// always runs fn to completion, so when any fn fails every lower index has
// also been evaluated, and the lowest-index recorded error is exactly the
// serial engine's first error.  Cancelling the context stops new dispatches.
func (e Engine) forEach(ctx context.Context, n int, fn func(i int) error) error {
	workers := min(e.workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check for cancellation before claiming an index: a claimed
				// index must always run to completion, or the lowest-index
				// guarantee above would not hold.
				if poolCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// --- Figure 1 -------------------------------------------------------------

// Figure1 sweeps the representation space: the workload × level grid of
// artifacts is compiled in parallel, then every (artifact, degree) cell runs
// on the pool.  Rows are returned in the serial engine's order (workload
// outer, level, then degree).
func (e Engine) Figure1(ctx context.Context, workloads []string, cfg Config) ([]Figure1Row, error) {
	if len(workloads) == 0 {
		workloads = DefaultExperimentWorkloads()
	}
	levels, degrees := Levels(), Degrees()

	arts := make([]*Artifact, len(workloads)*len(levels))
	err := e.forEach(ctx, len(arts), func(i int) error {
		a, err := e.buildWorkload(workloads[i/len(levels)], levels[i%len(levels)])
		if err != nil {
			return err
		}
		arts[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]Figure1Row, len(arts)*len(degrees))
	err = e.forEach(ctx, len(rows), func(i int) error {
		art, degree := arts[i/len(degrees)], degrees[i%len(degrees)]
		runCfg := cfg
		runCfg.Degree = degree
		rep, err := e.run(art, Conventional, runCfg)
		if err != nil {
			return fmt.Errorf("figure1 %s/%v/%v: %w", art.Name, art.Level, degree, err)
		}
		rows[i] = Figure1Row{
			Workload:       art.Name,
			Level:          art.Level,
			Degree:         degree,
			StaticBits:     rep.StaticBits,
			CodebookBits:   rep.CodebookBits,
			Instructions:   rep.Instructions,
			TotalCycles:    int64(rep.TotalCycles),
			PerInstruction: rep.PerInstruction,
			MeasuredDecode: rep.Measured.D,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// --- Figure 2 -------------------------------------------------------------

// figure2Entries is the DTB capacity axis of the Figure 2 sweep.
var figure2Entries = []int{8, 16, 32, 64, 128, 256}

// figure2DTB is the DTB of one point on the Figure 2 capacity axis: 4-way,
// variable-length allocation with a quarter of the entries' worth of overflow
// units, of unitWords-word units (4 when zero).
func figure2DTB(entries, unitWords int) dtb.Config {
	if unitWords == 0 {
		unitWords = 4
	}
	return dtb.Config{
		Entries: entries, Assoc: 4, UnitWords: unitWords,
		Policy: dtb.VariableOverflow, OverflowUnits: entries / 4,
	}
}

// Figure2 describes the DTB organisation (Figure 2's arrays) and measures its
// hit ratio across buffer capacities.  The workload is compiled and
// predecoded once; the capacity sweep shares that immutable form across the
// pool.
func (e Engine) Figure2(ctx context.Context, workloadName string, cfg Config) (string, []Figure2Row, error) {
	if workloadName == "" {
		workloadName = "sieve"
	}
	art, err := e.buildWorkload(workloadName, LevelStack)
	if err != nil {
		return "", nil, err
	}
	if _, err := art.Predecoded(cfg.Degree); err != nil {
		return "", nil, err
	}
	rows := make([]Figure2Row, len(figure2Entries))
	err = e.forEach(ctx, len(rows), func(i int) error {
		entries := figure2Entries[i]
		runCfg := cfg
		runCfg.DTB = figure2DTB(entries, cfg.DTB.UnitWords)
		rep, err := e.run(art, WithDTB, runCfg)
		if err != nil {
			return err
		}
		rows[i] = Figure2Row{
			Entries:       entries,
			CapacityBytes: runCfg.DTB.CapacityBytes(),
			HitRatio:      rep.Measured.HD,
			Evictions:     rep.DTBStats.Evictions,
			Overflows:     rep.DTBStats.Overflows,
		}
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	d, err := dtb.New(cfg.DTB)
	if err != nil {
		return "", nil, err
	}
	organisation := fmt.Sprintf(
		"DTB organisation (Figure 2): associative tag array + address array + replacement array over %d sets of %d, buffer array of %d-word units (%s allocation): %s",
		d.Sets(), cfg.DTB.Assoc, cfg.DTB.UnitWords, cfg.DTB.Policy, d.String())
	return organisation, rows, nil
}

// --- Section 7 empirical cross-check --------------------------------------

// Empirical runs every organisation on every workload at the configured
// encoding degree: artifacts are compiled and predecoded in parallel, then
// every (workload, strategy) cell runs on the pool against its workload's
// shared predecoded program, and finally each workload's outputs are
// verified to agree across strategies (sim.VerifyOutputs).
func (e Engine) Empirical(ctx context.Context, workloads []string, cfg Config) ([]EmpiricalRow, error) {
	if len(workloads) == 0 {
		workloads = DefaultExperimentWorkloads()
	}
	arts := make([]*Artifact, len(workloads))
	err := e.forEach(ctx, len(arts), func(i int) error {
		a, err := e.buildWorkload(workloads[i], LevelStack)
		if err != nil {
			return err
		}
		if _, err := a.Predecoded(cfg.Degree); err != nil {
			return fmt.Errorf("empirical %s: %w", workloads[i], err)
		}
		arts[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}

	strategies := Strategies()
	reports := make([]*Report, len(arts)*len(strategies))
	err = e.forEach(ctx, len(reports), func(i int) error {
		art, strategy := arts[i/len(strategies)], strategies[i%len(strategies)]
		rep, err := e.run(art, strategy, cfg)
		if err != nil {
			return fmt.Errorf("empirical %s: %v: %w", art.Name, strategy, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]EmpiricalRow, len(arts))
	for i, art := range arts {
		row := reports[i*len(strategies) : (i+1)*len(strategies)]
		if err := sim.VerifyOutputs(row); err != nil {
			return nil, fmt.Errorf("empirical %s: %w", art.Name, err)
		}
		rows[i] = EmpiricalRow{Workload: art.Name, Reports: row}
	}
	return rows, nil
}

// --- §3.2 compaction study -------------------------------------------------

// Compaction measures the §3.2 claim that encoding reduces program size by
// 25–75 percent, one workload per pool slot.
func (e Engine) Compaction(ctx context.Context, workloads []string, level Level) ([]CompactionRow, error) {
	if len(workloads) == 0 {
		workloads = DefaultExperimentWorkloads()
	}
	rows := make([]CompactionRow, len(workloads))
	err := e.forEach(ctx, len(rows), func(i int) error {
		art, err := e.buildWorkload(workloads[i], level)
		if err != nil {
			return err
		}
		row := CompactionRow{
			Workload:   art.Name,
			Level:      level,
			Expanded:   art.Binding.ExpandedWords() * 32,
			Bits:       make(map[Degree]int),
			Reduction:  make(map[Degree]float64),
			Interprets: make(map[Degree]int),
		}
		for _, degree := range Degrees() {
			bin, err := art.Encode(degree)
			if err != nil {
				return err
			}
			row.Bits[degree] = bin.SizeBits()
			row.Interprets[degree] = bin.CodebookBits()
		}
		packed := row.Bits[DegreePacked]
		for _, degree := range Degrees() {
			if packed > 0 {
				row.Reduction[degree] = 1 - float64(row.Bits[degree])/float64(packed)
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

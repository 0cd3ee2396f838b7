// Command uhmbench regenerates every table and figure of the paper's
// evaluation from the reproduction: the analytic Tables 2 and 3, the Table 1
// format comparison, and the measured counterparts of Figures 1–4 plus the
// empirical Section 7 cross-check and the §3.2 compaction study.
//
// The grid experiments run on the parallel engine by default (one worker per
// CPU); -workers 1 selects the serial engine, which produces the same bytes
// cell for cell.  An interrupt (Ctrl-C) cancels the sweep.
//
// Grid cells derive their cost reports from each program's shared execution
// trace by default (-mode derived); -mode simulated restores the full
// interleaved execute-and-cost loop, and -mode crosscheck runs both and fails
// on any field divergence.  All three produce identical reports.
//
// Usage:
//
//	uhmbench -exp all
//	uhmbench -exp table2
//	uhmbench -exp figure2 -workload sieve
//	uhmbench -exp empirical -workers 1
//
// The archsweep and modelerr experiments extend the evaluation beyond the
// paper's phase space using the generator's workload archetypes (recursion,
// kernel, phased, dispatch — controlled locality profiles): archsweep charts
// DTB hit-ratio sensitivity per archetype over the Figure 2 capacity axis,
// and modelerr runs the §7 analytic predictions (T1–T4, F1–F3) against
// measured values over -programs generated programs per archetype, reporting
// the signed-error distribution (optionally as JSON via -json):
//
//	uhmbench -exp archsweep -programs 8
//	uhmbench -exp modelerr -programs 50 -json MODEL_ERROR.json
//
// The -gen flag switches uhmbench into differential-conformance mode: it
// generates N seeded random MiniLang programs (starting at -seed) and runs
// each through the full cross-product of semantic levels, encoding degrees
// and machine organisations — all five, including the closure-compiled
// backend — checking the paper's equivalence invariant.  On
// divergence it prints the reproducer seed, shrinks the program to a minimal
// failing reproducer, and exits nonzero.  -gen-archetype restricts the sweep
// to one archetype's programs (or "all" for every archetype in turn):
//
//	uhmbench -gen 1000 -seed 1
//	uhmbench -gen 500 -seed 1 -gen-archetype dispatch
//
// The -chaos flag runs the service layer's chaos conformance sweep instead:
// N seeded fault-injection plans (starting at -seed), each driving a
// concurrent mixed workload against a fresh service while faults — build
// failures, forced evictions, checkout failures, trace storms, run panics —
// fire deterministically, asserting the robustness invariants (no leaked
// replayers, exact footprint accounting, retry-after-failure, correct-or-
// structured-error, drain termination).  On violation it prints the
// reproducer seed and exits nonzero:
//
//	uhmbench -chaos 200 -seed 1
//
// The -cpuprofile and -memprofile flags write pprof profiles of the run, so
// performance work on the experiment engine can be driven by evidence:
//
//	uhmbench -exp empirical -cpuprofile cpu.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"uhm/internal/core"
	"uhm/internal/faultinject"
	"uhm/internal/service"
	"uhm/internal/workload"
	"uhm/internal/workload/gen"
)

func main() {
	// All error paths return through realMain so deferred cleanups — above
	// all flushing the CPU profile — run before the process exits; os.Exit
	// would skip them and leave a truncated profile exactly on the failing
	// or interrupted runs one most wants to inspect.
	os.Exit(realMain())
}

func realMain() int {
	exp := flag.String("exp", "all", "experiment to run: table1, table2, table3, figure1, figure2, figure3, figure4, empirical, compaction, archsweep, modelerr, all")
	workloadName := flag.String("workload", "", "workload for the figure experiments (default chosen per experiment)")
	workers := flag.Int("workers", 0, "worker-pool size for the experiment engine and the conformance sweep (0 = one per CPU, 1 = serial)")
	mode := flag.String("mode", "derived", "how grid cells produce reports: derived (trace-once, cost-many), simulated (full interleaved loop), crosscheck (both, fail on divergence)")
	genCount := flag.Int("gen", 0, "conformance mode: check this many generated programs instead of running experiments")
	genArchetype := flag.String("gen-archetype", "", "generator archetype for -gen and the archetype experiments: "+strings.Join(workload.ArchetypeNames(), ", ")+", a comma list, or all (empty = uniform generator / full catalogue)")
	programs := flag.Int("programs", 0, "archsweep/modelerr: generated programs per archetype (0 = default)")
	jsonPath := flag.String("json", "", "modelerr: also write the machine-readable error distribution to this file")
	chaosCount := flag.Int("chaos", 0, "chaos mode: run this many seeded fault-injection plans instead of experiments")
	genSeed := flag.Int64("seed", 1, "first seed of the conformance or chaos sweep, and of archetype program populations")
	noMinimize := flag.Bool("nominimize", false, "conformance mode: skip shrinking failing programs")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uhmbench: -cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "uhmbench: -cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// Experiment sweeps go through the service layer's registry-backed
	// engine — the same artifact cache and build path cmd/uhmd serves — so
	// bench runs and server traffic exercise identical code.  The serial
	// engine is the one-worker service.
	svc := service.New(service.Options{Workers: *workers})
	engine := svc.Engine()
	runMode, err := core.ParseRunMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uhmbench: -mode:", err)
		return 1
	}
	engine.Mode = runMode
	cfg := core.DefaultConfig()
	archetypes, err := parseArchetypes(*genArchetype)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uhmbench: -gen-archetype:", err)
		return 1
	}
	opts := core.ExperimentOptions{
		Workload:   *workloadName,
		Archetypes: archetypes,
		Programs:   *programs,
		Seed:       *genSeed,
	}
	switch {
	case *chaosCount > 0:
		err = runChaos(ctx, *genSeed, *chaosCount)
	case *genCount > 0:
		err = runConformance(ctx, archetypes, *genSeed, *genCount, *workers, !*noMinimize, cfg)
	default:
		err = run(ctx, os.Stdout, engine, *exp, opts, *jsonPath, cfg)
	}

	// Report a memprofile failure without eclipsing the run's own error —
	// the run outcome is the primary signal.
	status := 0
	if *memProfile != "" {
		if merr := writeMemProfile(*memProfile); merr != nil {
			fmt.Fprintln(os.Stderr, "uhmbench: -memprofile:", merr)
			status = 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uhmbench:", err)
		status = 1
	}
	return status
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // flush recent frees so the profile reflects live heap
	return pprof.WriteHeapProfile(f)
}

// parseArchetypes expands the -gen-archetype flag: empty keeps the default
// (uniform generator for -gen, full catalogue for the experiments), "all"
// expands to the catalogue, and a comma list is validated name by name.
func parseArchetypes(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return workload.ArchetypeNames(), nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := gen.ArchetypeByName(name); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no archetype named in %q", s)
	}
	return out, nil
}

// parseExperiments expands and validates the -exp flag: a comma-separated
// experiment list, or "all".
func parseExperiments(exp string) ([]string, error) {
	known := core.Experiments()
	if strings.TrimSpace(exp) == "all" {
		return known, nil
	}
	var out []string
	for _, e := range strings.Split(exp, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !slices.Contains(known, e) {
			return nil, fmt.Errorf("unknown experiment %q (have %s, all)", e, strings.Join(known, ", "))
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiment named in %q", exp)
	}
	return out, nil
}

func run(ctx context.Context, w io.Writer, engine core.Engine, exp string, opts core.ExperimentOptions, jsonPath string, cfg core.Config) error {
	experiments, err := parseExperiments(exp)
	if err != nil {
		return err
	}
	for _, e := range experiments {
		if err := runOne(ctx, w, engine, e, opts, jsonPath, cfg); err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runChaos is the -chaos mode: n seeded fault plans through the service
// layer's chaos harness, reporting every broken robustness invariant.
func runChaos(ctx context.Context, seed int64, n int) error {
	fmt.Printf("chaos: running %d seeded fault plans (seeds %d..%d)\n", n, seed, seed+int64(n)-1)
	lastPct := -1
	res, err := service.ChaosSweep(ctx, seed, n, service.ChaosOptions{}, func(done, violations int) {
		pct := done * 100 / n
		if pct/10 > lastPct/10 {
			lastPct = pct
			fmt.Printf("  %3d%% (%d/%d plans, %d violations)\n", pct, done, n, violations)
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("chaos: %d plans, %d requests, %d injected faults across %d sites\n",
		res.Plans, res.Requests, sumFires(res.Fired), len(res.Fired))
	if len(res.Violations) == 0 {
		fmt.Println("chaos: every invariant held on every plan")
		return nil
	}
	for i, v := range res.Violations {
		if i >= 16 {
			fmt.Printf("  ... %d more\n", len(res.Violations)-i)
			break
		}
		fmt.Printf("  %s\n", v)
		fmt.Printf("  reproduce: uhmbench -chaos 1 -seed %d\n", v.Seed)
	}
	return fmt.Errorf("chaos: %d invariant violation(s) across %d plans", len(res.Violations), res.Plans)
}

func sumFires(fired map[faultinject.Site]int64) int64 {
	var total int64
	for _, c := range fired {
		total += c
	}
	return total
}

// runConformance is the -gen mode: a differential sweep of the generator's
// seed range through the full level × degree × strategy cross-product.  An
// archetype list runs one sweep per archetype; nil sweeps the uniform
// generator.
func runConformance(ctx context.Context, archetypes []string, seed int64, n, workers int, minimize bool, cfg core.Config) error {
	if len(archetypes) == 0 {
		return runConformanceOne(ctx, "", seed, n, workers, minimize, cfg)
	}
	for _, a := range archetypes {
		if err := runConformanceOne(ctx, a, seed, n, workers, minimize, cfg); err != nil {
			return err
		}
	}
	return nil
}

func runConformanceOne(ctx context.Context, archetype string, seed int64, n, workers int, minimize bool, cfg core.Config) error {
	population := "generated programs"
	if archetype != "" {
		population = fmt.Sprintf("%q archetype programs", archetype)
	}
	fmt.Printf("conformance: checking %d %s (seeds %d..%d) across %d levels x %d degrees x %d strategies\n",
		n, population, seed, seed+int64(n)-1, len(core.Levels()), len(core.Degrees()), len(core.Strategies()))
	// The progress callback is invoked concurrently from the sweep's workers.
	var progressMu sync.Mutex
	lastPct := -1
	res, err := core.ConformanceSweepArchetype(ctx, archetype, seed, n, workers, cfg, func(done, failed int) {
		progressMu.Lock()
		defer progressMu.Unlock()
		pct := done * 100 / n
		if pct/10 > lastPct/10 {
			lastPct = pct
			fmt.Printf("  %3d%% (%d/%d checked, %d failing)\n", pct, done, n, failed)
		}
	})
	if err != nil {
		return err
	}
	if len(res.Failing) == 0 {
		fmt.Printf("conformance: all %d programs conform on every point of the cross-product\n", res.Seeds)
		return nil
	}
	repro := ""
	if archetype != "" {
		repro = fmt.Sprintf(" -gen-archetype %s", archetype)
	}
	for _, f := range res.Failing {
		fmt.Printf("\nseed %d (%s): %d divergence(s)\n", f.Seed, f.Name, len(f.Divergences))
		for i, d := range f.Divergences {
			if i >= 8 {
				fmt.Printf("  ... %d more\n", len(f.Divergences)-i)
				break
			}
			fmt.Printf("  %s\n", d)
		}
		fmt.Printf("  reproduce: uhmbench -gen 1 -seed %d%s\n", f.Seed, repro)
	}
	if minimize {
		first := res.Failing[0]
		fmt.Printf("\nminimizing seed %d ...\n", first.Seed)
		fails := func(src string) bool {
			divs, err := core.CheckConformance("minimize", src, cfg)
			return err == nil && len(divs) > 0
		}
		minSrc, err := gen.Minimize(first.Source, fails)
		if err != nil {
			fmt.Printf("minimizer: %v\n", err)
		}
		divs, _ := core.CheckConformance("minimized", minSrc, cfg)
		fmt.Printf("minimal failing program (%d bytes, %d divergence(s)):\n%s\n", len(minSrc), len(divs), minSrc)
		for i, d := range divs {
			if i >= 4 {
				break
			}
			fmt.Printf("  %s\n", d)
		}
	}
	return fmt.Errorf("conformance: %d of %d generated programs diverged", len(res.Failing), res.Seeds)
}

// runOne prints one experiment to w.  modelerr with -json also writes the
// machine-readable error distribution, which needs the structured result
// rather than its rendering.
func runOne(ctx context.Context, w io.Writer, engine core.Engine, exp string, opts core.ExperimentOptions, jsonPath string, cfg core.Config) error {
	if exp != "modelerr" || jsonPath == "" {
		text, err := engine.Experiment(ctx, exp, opts, cfg)
		fmt.Fprint(w, text)
		return err
	}
	v, err := engine.ModelValidation(ctx, opts.Archetypes, opts.Programs, opts.Seed, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, core.RenderModelValidation(v))
	doc, err := core.ModelValidationJSON(v, "uhmbench")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d bytes)\n", jsonPath, len(doc))
	return nil
}

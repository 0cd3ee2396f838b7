// Command uhmrun compiles a MiniLang program (a built-in workload or a source
// file), simulates it on the universal host machine under a chosen
// organisation, and prints the program output together with the cost report.
//
// Usage:
//
//	uhmrun -workload fib -strategy dtb
//	uhmrun -file prog.ml -strategy conventional -level mem3 -degree pair
//	uhmrun -workload loopsum -strategy compiled
//	uhmrun -workload sieve -compare
//	uhmrun -archetype dispatch -gen-seed 7 -compare
//
// -archetype runs a generated workload instead: the named generator archetype
// (see -list-archetypes) produces the seeded, oracle-validated program
// -gen-seed selects, and the run proceeds exactly as for a source file.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"

	"uhm/internal/core"
	"uhm/internal/metrics"
	"uhm/internal/service"
	"uhm/internal/workload"
)

func main() {
	workloadName := flag.String("workload", "", "built-in workload to run (see -list)")
	file := flag.String("file", "", "MiniLang source file to run")
	archetype := flag.String("archetype", "", "generator archetype to run a generated program from (see -list-archetypes)")
	genSeed := flag.Int64("gen-seed", 1, "program seed for -archetype")
	list := flag.Bool("list", false, "list the built-in workloads and exit")
	listArchetypes := flag.Bool("list-archetypes", false, "list the generator archetypes and exit")
	levelName := flag.String("level", "stack", "semantic level of the DIR: stack, mem2, mem3")
	degreeName := flag.String("degree", "huffman", "encoding degree: packed, contour, huffman, pair")
	strategyName := flag.String("strategy", "dtb", "organisation: conventional, dtb, cache, expanded, compiled")
	compare := flag.Bool("compare", false, "run every organisation and compare them")
	flag.Parse()

	if *list {
		for _, name := range core.Workloads() {
			fmt.Println(name)
		}
		return
	}
	if *listArchetypes {
		for _, a := range workload.Archetypes() {
			fmt.Printf("%-10s %s\n", a.Name, a.Description)
		}
		return
	}
	if err := run(*workloadName, *file, *archetype, *genSeed, *levelName, *degreeName, *strategyName, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "uhmrun:", err)
		os.Exit(1)
	}
}

func run(workloadName, file, archetype string, genSeed int64, levelName, degreeName, strategyName string, compare bool) error {
	level, err := parseLevel(levelName)
	if err != nil {
		return err
	}
	degree, err := parseDegree(degreeName)
	if err != nil {
		return err
	}
	// One-shot CLI runs go through the same service layer cmd/uhmd serves
	// over HTTP — content-addressed artifact registry, parked replayers — so
	// the two paths cannot drift.
	svc := service.New(service.Options{})
	ctx := context.Background()
	req, err := buildRequest(workloadName, file, archetype, genSeed, level)
	if err != nil {
		return err
	}
	req.Config = core.DefaultConfig()
	req.Config.Degree = degree

	if compare {
		// Compare reports a mismatch through its error, but the reports
		// themselves are still returned; keep them so a divergence can be
		// shown as a per-strategy diff rather than a bare error string.
		reports, cmpErr := svc.Compare(ctx, req)
		if len(reports) == 0 {
			if cmpErr != nil {
				return cmpErr
			}
			return fmt.Errorf("comparison produced no reports")
		}
		if err := compareOutputs(reports); err != nil {
			return err
		}
		if cmpErr != nil {
			return cmpErr
		}
		fmt.Printf("output: %v\n\n", reports[0].Output)
		tbl := metrics.NewTable("strategy comparison", "strategy", "instructions", "cycles", "cycles/instr", "hit ratio")
		for _, rep := range reports {
			hit := ""
			if rep.Strategy == core.WithDTB {
				hit = metrics.Percent(rep.Measured.HD)
			}
			if rep.Strategy == core.WithCache {
				hit = metrics.Percent(rep.Measured.HC)
			}
			tbl.AddRow(rep.Strategy.String(), fmt.Sprint(rep.Instructions),
				fmt.Sprint(rep.TotalCycles), metrics.Float(rep.PerInstruction), hit)
		}
		fmt.Print(tbl.Render())
		return nil
	}

	strategy, err := parseStrategy(strategyName)
	if err != nil {
		return err
	}
	rep, err := svc.Run(ctx, req, strategy)
	if err != nil {
		return err
	}
	fmt.Printf("program:        %s (level %s, %s encoding)\n", req.Name, req.Level, degree)
	fmt.Printf("output:         %v\n", rep.Output)
	fmt.Printf("instructions:   %d\n", rep.Instructions)
	fmt.Printf("total cycles:   %d (%.2f per DIR instruction)\n", rep.TotalCycles, rep.PerInstruction)
	fmt.Printf("  fetch:        %d\n", rep.FetchCycles)
	fmt.Printf("  decode:       %d\n", rep.DecodeCycles)
	fmt.Printf("  translate:    %d\n", rep.TranslateCycles)
	fmt.Printf("  semantics:    %d\n", rep.SemanticCycles)
	fmt.Printf("static size:    %s (decoder tables %s)\n", metrics.Bits(rep.StaticBits), metrics.Bits(rep.CodebookBits))
	if strategy == core.WithDTB {
		fmt.Printf("DTB hit ratio:  %s (%d lookups, %d misses)\n",
			metrics.Percent(rep.Measured.HD), rep.DTBStats.Lookups, rep.DTBStats.Misses)
	}
	if strategy == core.WithCache {
		fmt.Printf("cache hit rate: %s\n", metrics.Percent(rep.Measured.HC))
	}
	if strategy == core.Compiled {
		fmt.Printf("compiled code:  %d words resident in level 1 (all binding done at compile time)\n",
			rep.CompiledWords)
	}
	return nil
}

// compareOutputs enforces the paper's equivalence invariant on a set of
// comparison reports: every strategy must have produced the identical output
// sequence.  On divergence it prints a per-strategy diff against the first
// report and returns an error (so the command exits nonzero).
func compareOutputs(reports []*core.Report) error {
	base := reports[0]
	diverged := false
	for _, rep := range reports[1:] {
		if slices.Equal(rep.Output, base.Output) {
			continue
		}
		if !diverged {
			diverged = true
			fmt.Fprintf(os.Stderr, "output divergence across strategies (the paper's equivalence invariant is violated):\n")
			fmt.Fprintf(os.Stderr, "  %-14s %v\n", base.Strategy.String()+":", base.Output)
		}
		fmt.Fprintf(os.Stderr, "  %-14s %v\n", rep.Strategy.String()+":", rep.Output)
		for _, d := range outputDiff(base.Output, rep.Output) {
			fmt.Fprintf(os.Stderr, "    %s\n", d)
		}
	}
	if diverged {
		return fmt.Errorf("strategies disagree on program output")
	}
	return nil
}

// outputDiff describes the positions at which two output sequences differ.
func outputDiff(a, b []int64) []string {
	var diffs []string
	n := max(len(a), len(b))
	for i := 0; i < n && len(diffs) < 8; i++ {
		switch {
		case i >= len(a):
			diffs = append(diffs, fmt.Sprintf("value %d: <missing> vs %d", i, b[i]))
		case i >= len(b):
			diffs = append(diffs, fmt.Sprintf("value %d: %d vs <missing>", i, a[i]))
		case a[i] != b[i]:
			diffs = append(diffs, fmt.Sprintf("value %d: %d vs %d", i, a[i], b[i]))
		}
	}
	if len(a) != len(b) {
		diffs = append(diffs, fmt.Sprintf("lengths differ: %d vs %d values", len(a), len(b)))
	}
	return diffs
}

// buildRequest names the program the flags select; the service resolves it
// through its content-addressed registry, the path uhmd serves.
func buildRequest(workloadName, file, archetype string, genSeed int64, level core.Level) (*service.Request, error) {
	selected := 0
	for _, s := range []string{workloadName, file, archetype} {
		if s != "" {
			selected++
		}
	}
	if selected > 1 {
		return nil, fmt.Errorf("specify only one of -workload, -file, -archetype")
	}
	switch {
	case workloadName != "":
		return &service.Request{Name: workloadName, Workload: workloadName, Level: level}, nil
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return &service.Request{Name: file, Source: string(src), Level: level}, nil
	case archetype != "":
		p, err := workload.GenerateArchetype(archetype, genSeed)
		if err != nil {
			return nil, err
		}
		// Generated programs ride the same content-addressed source path a
		// -file run uses, so the registry and server code paths are shared.
		return &service.Request{Name: p.Name, Source: p.Source, Level: level}, nil
	default:
		return nil, fmt.Errorf("specify -workload, -file or -archetype (use -list / -list-archetypes)")
	}
}

// The flag parsers delegate to core, the single source of truth shared with
// uhmasm and the uhmd server.
func parseLevel(name string) (core.Level, error)       { return core.ParseLevel(name) }
func parseDegree(name string) (core.Degree, error)     { return core.ParseDegree(name) }
func parseStrategy(name string) (core.Strategy, error) { return core.ParseStrategy(name) }

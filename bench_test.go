// Package uhm holds the top-level benchmark harness: one benchmark per table
// and figure of the paper's evaluation, plus ablation benchmarks for the
// reproduction's design choices.  Each benchmark regenerates its experiment
// through the public core façade, so `go test -bench=.` computes the same
// rows the cmd/uhmbench tool prints (ARCHITECTURE.md's experiment table maps
// each one to the paper).
package uhm

import (
	"context"
	"testing"

	"uhm/internal/compile"
	"uhm/internal/core"
	"uhm/internal/dir"
	"uhm/internal/dtb"
	"uhm/internal/faultinject"
	"uhm/internal/perfmodel"
	"uhm/internal/service"
	"uhm/internal/sim"
	"uhm/internal/store"
	"uhm/internal/workload"
	"uhm/internal/workload/gen"
)

func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxInstructions = 5_000_000
	return cfg
}

// BenchmarkTable1Formats regenerates Table 1: the PSDER / PDP-11 / 360-RX
// format equivalence.
func BenchmarkTable1Formats(b *testing.B) {
	var report string
	for i := 0; i < b.N; i++ {
		report = core.Table1Report()
	}
	if report == "" {
		b.Fatal("empty Table 1 report")
	}
}

// BenchmarkTable2 regenerates the analytic Table 2 grid.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(perfmodel.Table2().Cells) != 3 {
			b.Fatal("table 2 shape")
		}
	}
}

// BenchmarkTable3 regenerates the analytic Table 3 grid.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(perfmodel.Table3().Cells) != 3 {
			b.Fatal("table 3 shape")
		}
	}
}

// BenchmarkFigure1Sweep regenerates the representation-space sweep (Figure 1)
// for one workload.
func BenchmarkFigure1Sweep(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := core.Engine{}.Figure1(context.Background(), []string{"loopsum"}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure2DTBHitRatio regenerates the DTB capacity sweep (Figure 2).
func BenchmarkFigure2DTBHitRatio(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := (core.Engine{}).Figure2(context.Background(), "sieve", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Activity regenerates the per-unit activity report
// (Figure 3).
func BenchmarkFigure3Activity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := (core.Engine{}).Figure3(context.Background(), "fib", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkINTERPHitMiss regenerates the INTERP hit/miss path statistics
// (Figure 4).
func BenchmarkINTERPHitMiss(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		stats, err := core.Engine{}.Figure4(context.Background(), "sieve", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Interps == 0 {
			b.Fatal("no INTERP executions")
		}
	}
}

// BenchmarkUHMStrategies measures the simulated organisations individually on
// a loop-dominated workload (the empirical counterpart of the T1/T2/T3
// comparison).
func BenchmarkUHMStrategies(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := benchConfig()
	for _, strategy := range sim.Strategies() {
		b.Run(strategy.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := sim.Run(dp, strategy, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.PerInstruction, "cycles/DIR-instr")
			}
		})
	}
}

// BenchmarkEmpiricalStrategies regenerates the Section 7 empirical
// cross-check over the default workload set.
func BenchmarkEmpiricalStrategies(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := (core.Engine{}).Empirical(context.Background(), []string{"loopsum", "fib"}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodingCompaction regenerates the §3.2 compaction study.
func BenchmarkEncodingCompaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Engine{}.Compaction(context.Background(), []string{"sieve"}, core.LevelStack)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Reduction[core.DegreePair]*100, "%saved")
	}
}

// --- Ablation benchmarks (the reproduction's design choices) --------------

// BenchmarkAblationEncodingDegree measures the conventional organisation at
// every encoding degree: the decode-cost / program-size trade-off.
func BenchmarkAblationEncodingDegree(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	for _, degree := range dir.Degrees() {
		b.Run(degree.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Degree = degree
			for i := 0; i < b.N; i++ {
				rep, err := sim.Run(dp, sim.Conventional, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Measured.D, "decode-steps/instr")
				b.ReportMetric(float64(rep.StaticBits), "static-bits")
			}
		})
	}
}

// BenchmarkAblationSemanticLevel measures the DTB organisation at every
// semantic level of the compiled DIR.
func BenchmarkAblationSemanticLevel(b *testing.B) {
	for _, level := range compile.Levels() {
		dp := workload.MustCompileAt("loopsum", level)
		b.Run(level.String(), func(b *testing.B) {
			cfg := benchConfig()
			for i := 0; i < b.N; i++ {
				rep, err := sim.Run(dp, sim.WithDTB, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Instructions), "DIR-instrs")
			}
		})
	}
}

// BenchmarkAblationDTBAllocation compares the fixed and variable-with-
// overflow allocation policies of §5.1.
func BenchmarkAblationDTBAllocation(b *testing.B) {
	dp := workload.MustCompileAt("sieve", compile.LevelStack)
	policies := map[string]dtb.Config{
		"fixed":    {Entries: 84, Assoc: 4, UnitWords: 8, Policy: dtb.Fixed},
		"overflow": {Entries: 84, Assoc: 4, UnitWords: 4, Policy: dtb.VariableOverflow, OverflowUnits: 32},
	}
	for name, dcfg := range policies {
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.DTB = dcfg
			for i := 0; i < b.N; i++ {
				rep, err := sim.Run(dp, sim.WithDTB, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Measured.HD*100, "hit%")
			}
		})
	}
}

// BenchmarkAblationModelHitRatio sweeps the analytic model's DTB hit ratio,
// showing how the paper's conclusions depend on locality.
func BenchmarkAblationModelHitRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, hd := range []float64{0.5, 0.7, 0.8, 0.9, 0.99} {
			_, results, err := perfmodel.Sweep([]float64{10}, []float64{10}, func(p *perfmodel.Params) { p.HD = hd })
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != 1 {
				b.Fatal("sweep shape")
			}
		}
	}
}

// --- Engine and dispatch benchmarks (parallel sweep + predecoded fast path) -

// BenchmarkEngineEmpirical compares the serial and parallel experiment
// engines on the Section 7 workload × strategy grid.
func BenchmarkEngineEmpirical(b *testing.B) {
	cfg := benchConfig()
	for _, bench := range []struct {
		name   string
		engine core.Engine
	}{
		{"serial", core.Engine{Workers: 1}},
		{"parallel", core.Engine{}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.engine.Empirical(context.Background(), nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineFigure1 compares the serial and parallel engines on the
// representation-space sweep.
func BenchmarkEngineFigure1(b *testing.B) {
	cfg := benchConfig()
	for _, bench := range []struct {
		name   string
		engine core.Engine
	}{
		{"serial", core.Engine{Workers: 1}},
		{"parallel", core.Engine{}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.engine.Figure1(context.Background(), nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Encode / predecode microbenchmarks (bit-level substrate) -------------

// BenchmarkEncode measures dir.Encode throughput at every encoding degree:
// the cost of producing the static representation, dominated by the bitio
// writer and the entropy coders.
func BenchmarkEncode(b *testing.B) {
	dp := workload.MustCompileAt("matmul", compile.LevelStack)
	for _, degree := range dir.Degrees() {
		b.Run(degree.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dir.Encode(dp, degree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredecode measures Binary.Predecode throughput at every encoding
// degree: the cost of one full decode pass over the static representation,
// dominated by the bitio reader and the Huffman decoders.
func BenchmarkPredecode(b *testing.B) {
	dp := workload.MustCompileAt("matmul", compile.LevelStack)
	for _, degree := range dir.Degrees() {
		bin, err := dir.Encode(dp, degree)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(degree.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bin.Predecode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dispatchRounds is how many passes over the static program the dispatch
// benchmarks replay, standing in for a loop-dominated dynamic stream.
const dispatchRounds = 50

// BenchmarkDispatchPredecoded measures dispatch over the shared predecoded
// program: a slice index per instruction, decode and translation paid once
// per run.  The binary is encoded outside the timer, so only predecode and
// dispatch-path work is timed.
func BenchmarkDispatchPredecoded(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	bin, err := dir.Encode(dp, dir.DegreeHuffman)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		pp, err := sim.PredecodeBinary(bin)
		if err != nil {
			b.Fatal(err)
		}
		n := pp.NumInstrs()
		for round := 0; round < dispatchRounds; round++ {
			for pc := 0; pc < n; pc++ {
				sink += pp.DecodeCost(pc).Steps + pp.Sequence(pc).Words()
			}
		}
	}
	if sink == 0 {
		b.Fatal("no dispatch work performed")
	}
}

// BenchmarkReplaySteadyState measures the zero-allocation replay loop: one
// sim.Replayer per strategy, set up and warmed outside the timer, replaying
// the whole program per iteration.  The expected report is 0 allocs/op.
func BenchmarkReplaySteadyState(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := benchConfig()
	pp, err := sim.Predecode(dp, cfg.Degree)
	if err != nil {
		b.Fatal(err)
	}
	for _, strategy := range sim.Strategies() {
		b.Run(strategy.String(), func(b *testing.B) {
			rep, err := sim.NewReplayer(pp, strategy, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rep.Replay(); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rep.Replay(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayCompiled isolates the closure-compiled backend alongside
// the four interpreted organisations of BenchmarkReplaySteadyState: one warm
// Replayer on the Compiled strategy, replaying the whole program per
// iteration at 0 allocs/op.  The acceptance bar for the fifth organisation
// is that this is measurably faster than the expanded organisation — all
// fetch-decode-dispatch work is bound at compile time, so only the native
// semantics remain.
func BenchmarkReplayCompiled(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := benchConfig()
	pp, err := sim.Predecode(dp, cfg.Degree)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sim.NewReplayer(pp, sim.Compiled, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rep.Replay(); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := rep.Replay()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PerInstruction, "cycles/DIR-instr")
	}
}

// BenchmarkTraceRecord measures the "trace once" half of the trace-once/
// cost-many split: one canonical execution (the closure-compiled backend)
// recording the dynamic pc stream, output, peak depth and semantic cost.
// This is the amortised cost every derived report shares.
func BenchmarkTraceRecord(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := benchConfig()
	pp, err := sim.Predecode(dp, cfg.Degree)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pp.Trace(); err != nil { // build the compiled form outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := pp.RecordTrace()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(tr.Instructions()), "instrs/trace")
		}
	}
}

// BenchmarkCompileProgram measures dir.Compile throughput: the one-time cost
// of lowering a workload to direct-threaded closures, the compiled
// organisation's analogue of BenchmarkPredecode.
func BenchmarkCompileProgram(b *testing.B) {
	for _, level := range compile.Levels() {
		dp := workload.MustCompileAt("matmul", level)
		b.Run(level.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dir.Compile(dp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Service-layer benchmarks (registry + replayer pool) ------------------

// workloadRequests names each built-in workload as a stack-level service
// request under cfg.
func workloadRequests(names []string, cfg core.Config) []*service.Request {
	reqs := make([]*service.Request, len(names))
	for i, name := range names {
		reqs[i] = &service.Request{Name: name, Workload: name, Level: core.LevelStack, Config: cfg}
	}
	return reqs
}

// BenchmarkServeConcurrent measures steady-state request handling through
// the service layer at GOMAXPROCS parallelism: mixed workloads × strategies,
// every artifact already resident in the content-addressed registry and
// every replayer warmed in the pool, exactly the shape of a loaded uhmd.
// The per-op cost is one registry hit, one pool checkout, the replayer's
// held derived report, one report clone.
func BenchmarkServeConcurrent(b *testing.B) {
	cfg := benchConfig()
	svc := service.New(service.Options{})
	ctx := context.Background()
	workloads := workloadRequests([]string{"loopsum", "fib", "sieve"}, cfg)
	strategies := sim.Strategies()
	// Warm every (workload, strategy) cell: builds, predecodes, compiles and
	// pools outside the timer.
	for _, w := range workloads {
		for _, s := range strategies {
			if _, err := svc.Run(ctx, w, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	before := svc.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			w := workloads[i%len(workloads)]
			s := strategies[i/len(workloads)%len(strategies)]
			i++
			if _, err := svc.Run(ctx, w, s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	after := svc.Stats()
	if after.Registry.Builds != before.Registry.Builds {
		b.Fatalf("steady state rebuilt artifacts: %d -> %d builds",
			before.Registry.Builds, after.Registry.Builds)
	}
}

// BenchmarkServeBatch measures the same warm mixed workload as
// BenchmarkServeConcurrent but admitted through the batch path, 16 runs per
// slot acquisition.  ns/op is per RUN in both benchmarks, so the difference
// between them is exactly the amortised per-request overhead — the number
// the batching half of the fleet design exists to shrink.
func BenchmarkServeBatch(b *testing.B) {
	cfg := benchConfig()
	svc := service.New(service.Options{})
	ctx := context.Background()
	workloads := workloadRequests([]string{"loopsum", "fib", "sieve"}, cfg)
	strategies := sim.Strategies()
	for _, w := range workloads {
		for _, s := range strategies {
			if _, err := svc.Run(ctx, w, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	before := svc.Stats()
	const batchSize = 16
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for {
			// Gather up to one batch worth of iterations, then run them all
			// under a single admission — the batch amortisation unit.
			n := 0
			for n < batchSize && pb.Next() {
				n++
			}
			if n == 0 {
				return
			}
			base := i
			err := svc.Admit(ctx, func(ctx context.Context, run *service.Runner) error {
				for k := 0; k < n; k++ {
					w := workloads[(base+k)%len(workloads)]
					s := strategies[(base+k)/len(workloads)%len(strategies)]
					if _, err := run.Run(ctx, w, s); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			i += n
		}
	})
	b.StopTimer()
	after := svc.Stats()
	if after.Registry.Builds != before.Registry.Builds {
		b.Fatalf("steady state rebuilt artifacts: %d -> %d builds",
			before.Registry.Builds, after.Registry.Builds)
	}
}

// BenchmarkServeDeclineStorm measures the derive-decline path: a
// trace-record fault at p=1 fails warm sieve's one recording, so every
// request's derivation declines and falls back to a full replay.  Against
// BenchmarkServeConcurrent's derived requests, it prices what a decline
// costs on top of the replay it forces.
func BenchmarkServeDeclineStorm(b *testing.B) {
	defer faultinject.Activate(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteTraceRecord, Probability: 1,
	}))()
	svc := service.New(service.Options{Workers: 1})
	ctx := context.Background()
	sieve := workloadRequests([]string{"sieve"}, benchConfig())[0]
	for i := 0; i < 3; i++ {
		if _, err := svc.Run(ctx, sieve, sim.WithDTB); err != nil {
			b.Fatal(err)
		}
	}
	before := svc.Stats().Requests.DeriveFallbacks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := svc.Run(ctx, sieve, sim.WithDTB)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Derived {
			b.Fatal("derived a report while trace recording always fails")
		}
	}
	b.StopTimer()
	if got := svc.Stats().Requests.DeriveFallbacks - before; got != int64(b.N) {
		b.Fatalf("counted %d derive fallbacks over %d declining requests", got, b.N)
	}
}

// BenchmarkRunSharedPredecode measures a full simulated DTB run when the
// predecoded program is built once and reused, the shape of every sweep in
// the experiment engine.
func BenchmarkRunSharedPredecode(b *testing.B) {
	dp := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := benchConfig()
	pp, err := sim.Predecode(dp, cfg.Degree)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunPredecoded(pp, sim.WithDTB, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Archetype experiment benchmarks (generated-population studies) --------

// BenchmarkArchetypeGenerate measures seeded program generation per locality
// profile, including the oracle-validation retry loop.
func BenchmarkArchetypeGenerate(b *testing.B) {
	for _, a := range gen.Archetypes() {
		b.Run(a.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := a.Generate(int64(1 + i%16))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(p.Source)), "source-bytes")
				}
			}
		})
	}
}

// BenchmarkArchetypeSweep regenerates the archetype x DTB-capacity study on
// a reduced population: one profile, two programs, the full Figure 2 axis.
func BenchmarkArchetypeSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := core.Engine{}.ArchetypeSweep(context.Background(),
			[]string{"dispatch"}, 2, 1, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkModelValidation regenerates the analytic-model error study on a
// reduced population: every archetype, one program each, four organisations
// measured per program.
func BenchmarkModelValidation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		v, err := core.Engine{}.ModelValidation(context.Background(), nil, 1, 1, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(v.Samples) == 0 {
			b.Fatal("empty validation")
		}
	}
}

// BenchmarkConformanceArchetype measures one differential conformance check
// (core.CheckConformance: 3 levels x 4 encodings x 5 organisations against
// the hlr oracle) per archetype, on the first generated program whose oracle
// run takes 2,000-8,000 steps, the band the uhmperf sweep workload draws
// from.  It is the unit of work of uhmbench -gen and of that workload.
func BenchmarkConformanceArchetype(b *testing.B) {
	cfg := benchConfig()
	for _, a := range gen.Archetypes() {
		var p *gen.Program
		for seed := int64(1); p == nil && seed <= 1_000; seed++ {
			g, err := a.Generate(seed)
			if err == nil && g.OracleSteps >= 2_000 && g.OracleSteps <= 8_000 {
				p = g
			}
		}
		if p == nil {
			b.Fatalf("%s: no program of 2,000-8,000 oracle steps among seeds 1..1000", a.Name)
		}
		b.Run(a.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				divs, err := core.CheckConformance(p.Name, p.Source, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(divs) != 0 {
					b.Fatalf("%s diverged: %v", p.Name, divs[0])
				}
			}
		})
	}
}

// benchWorkingSet is the working set the start-up benchmarks bring online:
// three workloads, each run once under DTB at the stack level.
var benchWorkingSet = workloadRequests([]string{"loopsum", "fib", "sieve"}, benchConfig())

// coldStart brings the working set online in a fresh process with nothing
// persisted: every request pays the full compile pipeline (parse, translate,
// encode, predecode).
func coldStart(tb testing.TB) {
	svc := service.New(service.Options{})
	for _, w := range benchWorkingSet {
		if _, err := svc.Run(context.Background(), w, sim.WithDTB); err != nil {
			tb.Fatal(err)
		}
	}
}

// persistWorkingSet runs the working set against a store in a fresh
// directory and returns the directory.  Two runs per workload, so the
// recorded trace is synced into the container and a process warm-started
// from it derives instead of re-executing.
func persistWorkingSet(tb testing.TB) string {
	dir := tb.TempDir()
	tier, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	seed := service.New(service.Options{Store: tier})
	for _, w := range benchWorkingSet {
		for j := 0; j < 2; j++ {
			if _, err := seed.Run(context.Background(), w, sim.WithDTB); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return dir
}

// warmStart brings the same working set online in a restarted process: the
// artifacts (including recorded traces) are preloaded from dir, so no
// request touches the compile pipeline.
func warmStart(tb testing.TB, dir string) *service.Service {
	tier, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	svc := service.New(service.Options{Store: tier})
	if _, err := svc.Warmstart(-1); err != nil {
		tb.Fatal(err)
	}
	for _, w := range benchWorkingSet {
		if _, err := svc.Run(context.Background(), w, sim.WithDTB); err != nil {
			tb.Fatal(err)
		}
	}
	return svc
}

// BenchmarkColdStart measures coldStart.
func BenchmarkColdStart(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coldStart(b)
	}
}

// BenchmarkWarmStart measures warmStart from a store populated outside the
// timer.  The delta against BenchmarkColdStart is the value of persistence.
func BenchmarkWarmStart(b *testing.B) {
	dir := persistWorkingSet(b)
	var svc *service.Service
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc = warmStart(b, dir)
	}
	b.StopTimer()
	if st := svc.Registry().Stats(); st.Builds != 0 {
		b.Fatalf("warm start rebuilt %d artifacts, want 0", st.Builds)
	}
}

// TestStartAllocs pins the allocations of the start-up benchmarks' loop
// bodies, which are the same on every run.  A change that adds one fails
// here; a change that removes some lowers its pin.  Under the race detector
// the counts are not exact, so they are only logged.
func TestStartAllocs(t *testing.T) {
	dir := persistWorkingSet(t)
	for _, tc := range []struct {
		name   string
		pinned float64
		start  func()
	}{
		{"cold", 1320, func() { coldStart(t) }},
		{"warm", 842, func() { warmStart(t, dir) }},
	} {
		allocs := testing.AllocsPerRun(20, tc.start)
		t.Logf("%s start: %.1f allocs/op (pinned %.0f)", tc.name, allocs, tc.pinned)
		if allocs > tc.pinned && !raceEnabled {
			t.Errorf("%s start costs %.1f allocs/op, above the pinned %.0f", tc.name, allocs, tc.pinned)
		}
	}
}

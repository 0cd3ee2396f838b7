package service

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"uhm/internal/core"
	"uhm/internal/sim"
	"uhm/internal/workload"
)

func testConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 5_000_000
	return cfg
}

// workloadReq and sourceReq build stack-level requests for a built-in
// workload and for submitted source.
func workloadReq(name string, cfg sim.Config) *Request {
	return &Request{Name: name, Workload: name, Level: core.LevelStack, Config: cfg}
}

func sourceReq(name, src string, cfg sim.Config) *Request {
	return &Request{Name: name, Source: src, Level: core.LevelStack, Config: cfg}
}

// TestRegistrySingleflight pins the one-build-per-content-address guarantee:
// any number of concurrent requests for the same program block on a single
// build and share the resulting artifact.
func TestRegistrySingleflight(t *testing.T) {
	src, err := workload.Source("loopsum")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(0)
	const goroutines = 32
	arts := make([]*core.Artifact, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < goroutines; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			a, err := r.Source("loopsum", src, core.LevelStack)
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = a
		}()
	}
	start.Done()
	done.Wait()
	for i := 1; i < goroutines; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("goroutine %d got a different artifact instance", i)
		}
	}
	st := r.Stats()
	if st.Builds != 1 {
		t.Fatalf("Builds = %d, want exactly 1 (singleflight)", st.Builds)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("Hits = %d, want %d", st.Hits, goroutines-1)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
}

// TestRegistryContentAddressing: the same source under two names is one
// entry; a different level is a different entry.
func TestRegistryContentAddressing(t *testing.T) {
	src, err := workload.Source("fib")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(0)
	a1, err := r.Source("first-name", src, core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Source("second-name", src, core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("same source, same level: want one shared artifact")
	}
	a3, err := r.Source("first-name", src, core.LevelMem3)
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a1 {
		t.Fatal("different level must be a different artifact")
	}
	if st := r.Stats(); st.Builds != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 builds, 2 entries", st)
	}
}

// TestRegistryBuildErrorNotCached: a failed build reports its error to every
// waiter but leaves no entry behind, so the counters see a fresh build on
// retry.
func TestRegistryBuildErrorNotCached(t *testing.T) {
	r := NewRegistry(0)
	if _, err := r.Source("bad", "this is not minilang", core.LevelStack); err == nil {
		t.Fatal("want a parse error")
	}
	st := r.Stats()
	if st.BuildErrors != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 build error, 0 entries", st)
	}
	if _, err := r.Source("bad", "this is not minilang", core.LevelStack); err == nil {
		t.Fatal("want a parse error on retry")
	}
	if st := r.Stats(); st.Builds != 2 {
		t.Fatalf("Builds = %d, want 2 (errors are not cached)", st.Builds)
	}
}

// TestRegistryEviction: a byte budget small enough for one artifact evicts
// the least recently used entry when a second arrives, and the evicted
// artifact is no longer live.
func TestRegistryEviction(t *testing.T) {
	srcA, err := workload.Source("loopsum")
	if err != nil {
		t.Fatal(err)
	}
	srcB, err := workload.Source("fib")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(1) // absurdly small: any completed entry is over budget

	a, err := r.Source("loopsum", srcA, core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	// The single over-budget entry is retained (no thrashing) ...
	if st := r.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats after first build = %+v, want the entry retained", st)
	}
	// ... until a newer entry arrives, which evicts it.
	b, err := r.Source("fib", srcB, core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats after second build = %+v, want 1 eviction, 1 entry", st)
	}
	if r.Live(a) || !r.Live(b) {
		t.Fatalf("Live(first) = %v, Live(second) = %v: want the first artifact evicted", r.Live(a), r.Live(b))
	}
	// The evicted artifact rebuilds on next request.
	if _, err := r.Source("loopsum", srcA, core.LevelStack); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Builds != 3 {
		t.Fatalf("Builds = %d, want 3 (evicted entry rebuilt)", st.Builds)
	}
}

// TestRegistrySyncGrowsAccounting: predecoding under a run inflates the
// artifact's footprint, and Sync folds the growth into the registry's bytes.
func TestRegistrySyncGrowsAccounting(t *testing.T) {
	r := NewRegistry(0)
	a, err := r.Workload("loopsum", core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats().Bytes
	if _, err := a.Predecoded(testConfig().Degree); err != nil {
		t.Fatal(err)
	}
	r.Sync(a)
	after := r.Stats().Bytes
	if after <= before {
		t.Fatalf("bytes %d -> %d, want growth after predecode", before, after)
	}
}

// TestPoolReuse: a released replayer is checked out again instead of a new
// one being constructed.
func TestPoolReuse(t *testing.T) {
	cfg := testConfig()
	a, err := core.BuildWorkload("loopsum", core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := a.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(4)
	l1, err := p.Acquire(pp, sim.WithDTB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1 := l1.R
	l1.Release()
	l1.Release() // idempotent
	l2, err := p.Acquire(pp, sim.WithDTB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l2.R != r1 {
		t.Fatal("want the released replayer back")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss", st)
	}
	// A different strategy or config is a different class.
	l3, err := p.Acquire(pp, sim.Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l3.R == r1 {
		t.Fatal("strategies must not share replayers")
	}
}

// TestPoolConfigFingerprint: configurations that normalize alike (a zero
// MaxDepth selects the default) are one class and share a parked replayer;
// different configurations are different classes.
func TestPoolConfigFingerprint(t *testing.T) {
	cfg := testConfig()
	a, err := core.BuildWorkload("fib", core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := a.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(4)
	l1, err := p.Acquire(pp, sim.WithCache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1 := l1.R
	l1.Release()

	zeroDepth := cfg
	zeroDepth.MaxDepth = 0 // normalizes to the default
	if zeroDepth.Normalize() != cfg.Normalize() {
		t.Fatal("test premise: zero MaxDepth must normalize like the default")
	}
	l2, err := p.Acquire(pp, sim.WithCache, zeroDepth)
	if err != nil {
		t.Fatal(err)
	}
	if l2.R != r1 {
		t.Fatal("a configuration that normalizes alike must unpark the same replayer")
	}
	l2.Release()

	bigger := cfg
	bigger.MaxInstructions = cfg.MaxInstructions + 1
	l3, err := p.Acquire(pp, sim.WithCache, bigger)
	if err != nil {
		t.Fatal(err)
	}
	if l3.R == r1 {
		t.Fatal("different MaxInstructions must be a different class")
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses", st)
	}
}

// TestPoolInvalidate: the pool keeps nothing of a program, so dropping the
// program invalidates every replayer of it, parked or still checked out
// when it was dropped, while the pool lives on.  A new program of the same
// source starts empty and parks again.
func TestPoolInvalidate(t *testing.T) {
	cfg := testConfig()
	build := func() *sim.PredecodedProgram {
		a, err := core.BuildWorkload("loopsum", core.LevelStack)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := a.Predecoded(cfg.Degree)
		if err != nil {
			t.Fatal(err)
		}
		return pp
	}
	p := NewPool(4)
	pp := build()
	idle, err := p.Acquire(pp, sim.Expanded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idle.Release()
	leased, err := p.Acquire(pp, sim.Expanded, cfg) // the parked one, checked out
	if err != nil {
		t.Fatal(err)
	}
	extra, err := p.Acquire(pp, sim.Expanded, cfg) // a second, also out
	if err != nil {
		t.Fatal(err)
	}
	program := weak.Make(pp)
	pp = nil
	leased.Release()
	extra.Release()
	if st := p.Stats(); st.Leased != 0 || st.Discards != 0 {
		t.Fatalf("stats = %+v, want both outstanding leases parked on their program", st)
	}
	idle, leased, extra = nil, nil, nil
	runtime.GC()
	runtime.GC()
	if program.Value() != nil {
		t.Fatal("the pool keeps a dropped program reachable")
	}

	pp = build()
	l, err := p.Acquire(pp, sim.Expanded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	l, err = p.Acquire(pp, sim.Expanded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	if st := p.Stats(); st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want the new program to miss once and then park", st)
	}
}

// TestPoolParkBound: a client iterating distinct configurations (each a
// distinct class) cannot grow what one program keeps parked without limit.
// Past workers × len(sim.Strategies()) the oldest parked replayer is dropped,
// so a hot class still parks, and the program charges exactly the replayers
// it keeps.
func TestPoolParkBound(t *testing.T) {
	cfg := testConfig()
	a, err := core.BuildWorkload("fib", core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := a.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 40
	p := NewPool(1)
	bound := len(sim.Strategies())
	before := pp.FootprintBytes()
	classes := make([]sim.Config, runs)
	charge := 0 // what one parked replayer adds to the footprint
	for i := range classes {
		classes[i] = cfg
		classes[i].MaxInstructions = int64(1000 + i) // a distinct class each time
		l, err := p.Acquire(pp, sim.Conventional, classes[i])
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
		if i == 0 {
			charge = pp.FootprintBytes() - before
		}
	}
	if charge <= 0 {
		t.Fatalf("a parked replayer adds %d B to its program's footprint, want a positive charge", charge)
	}
	st := p.Stats()
	if st.Discards != runs-int64(bound) {
		t.Fatalf("Discards = %d, want %d dropped beyond the bound of %d", st.Discards, runs-bound, bound)
	}
	if grew := pp.FootprintBytes() - before; grew != bound*charge {
		t.Fatalf("footprint grew %d B, want the %d parked replayers' %d B", grew, bound, bound*charge)
	}
	// The newest classes are parked, the oldest were dropped.
	newest, err := p.Acquire(pp, sim.Conventional, classes[runs-1])
	if err != nil {
		t.Fatal(err)
	}
	newest.Release()
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("the newest class was not parked: %+v", st)
	}
	oldest, err := p.Acquire(pp, sim.Conventional, classes[0])
	if err != nil {
		t.Fatal(err)
	}
	oldest.Release()
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("the oldest class is still parked past the bound: %+v", st)
	}
	// A hot class still parks on the full program.
	hot, err := p.Acquire(pp, sim.Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := hot.R
	hot.Release()
	again, err := p.Acquire(pp, sim.Conventional, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.R != r {
		t.Fatal("hot class not parked once the program reached its bound")
	}
	again.Release()
	if grew := pp.FootprintBytes() - before; grew != bound*charge {
		t.Fatalf("footprint grew %d B, want %d B: still the bound's worth parked", grew, bound*charge)
	}
}

// TestWarmedRequestNoRebuild is the acceptance pin: a repeated request does
// zero artifact rebuild work (registry Builds constant, Hits rising) and
// replays on the simulator parked on its program (pool Hits rising), with
// identical output.
func TestWarmedRequestNoRebuild(t *testing.T) {
	svc := New(Options{})
	ctx := context.Background()
	cfg := testConfig()

	first, err := svc.Run(ctx, workloadReq("sieve", cfg), sim.WithDTB)
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Registry.Builds != 1 || st.Pool.Misses != 1 {
		t.Fatalf("cold stats = %+v, want 1 build, 1 pool miss", st)
	}

	second, err := svc.Run(ctx, workloadReq("sieve", cfg), sim.WithDTB)
	if err != nil {
		t.Fatal(err)
	}
	st = svc.Stats()
	if st.Registry.Builds != 1 {
		t.Fatalf("warm request rebuilt: Builds = %d", st.Registry.Builds)
	}
	if st.Registry.Hits == 0 {
		t.Fatalf("warm request missed the registry: %+v", st.Registry)
	}
	if st.Pool.Hits != 1 {
		t.Fatalf("warm request did not reuse the parked replayer: %+v", st.Pool)
	}
	if !slices.Equal(first.Output, second.Output) {
		t.Fatalf("outputs differ: %v vs %v", first.Output, second.Output)
	}
	if first.TotalCycles != second.TotalCycles || first.Instructions != second.Instructions {
		t.Fatalf("warm replay cost differs: (%d, %d) vs (%d, %d)",
			first.Instructions, first.TotalCycles, second.Instructions, second.TotalCycles)
	}
	// The clone the service hands out must be the caller's own.
	if len(first.Output) > 0 && len(second.Output) > 0 && &first.Output[0] == &second.Output[0] {
		t.Fatal("reports share their output backing array")
	}
}

// TestPooledReplayZeroAllocs is the other acceptance pin: the replay loop on
// a pooled, warmed replayer allocates nothing, for every organisation.
func TestPooledReplayZeroAllocs(t *testing.T) {
	cfg := testConfig()
	a, err := core.BuildWorkload("loopsum", core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := a.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2)
	for _, strategy := range core.Strategies() {
		t.Run(strategy.String(), func(t *testing.T) {
			lease, err := p.Acquire(pp, strategy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer lease.Release()
			if _, err := lease.R.Replay(); err != nil { // warm-up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := lease.R.Replay(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("pooled replay allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

// TestServiceCompareAgreement: the pooled comparison path upholds the
// equivalence invariant and matches the direct core path byte for byte.
func TestServiceCompareAgreement(t *testing.T) {
	svc := New(Options{})
	cfg := testConfig()
	reports, err := svc.Compare(context.Background(), workloadReq("fib", cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(core.Strategies()) {
		t.Fatalf("got %d reports, want %d", len(reports), len(core.Strategies()))
	}
	art, err := core.BuildWorkload("fib", core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Compare(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		if !slices.Equal(reports[i].Output, direct[i].Output) {
			t.Fatalf("%v: pooled output %v, direct %v",
				reports[i].Strategy, reports[i].Output, direct[i].Output)
		}
		if reports[i].TotalCycles != direct[i].TotalCycles {
			t.Fatalf("%v: pooled cycles %d, direct %d",
				reports[i].Strategy, reports[i].TotalCycles, direct[i].TotalCycles)
		}
	}
}

// TestAdmitExclusiveHoldsAllSlots: an exclusively admitted function owns
// every request slot — plain requests cannot be admitted while it runs, so
// work that fans out to the full worker width internally (experiment
// sweeps) keeps total concurrency at the configured bound.
func TestAdmitExclusiveHoldsAllSlots(t *testing.T) {
	svc := New(Options{Workers: 2})
	inside := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- svc.AdmitExclusive(context.Background(), func(context.Context) error {
			close(inside)
			<-release
			return nil
		})
	}()
	<-inside
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := svc.Run(ctx, workloadReq("fib", testConfig()), sim.WithDTB); err == nil {
		t.Fatal("plain request admitted while an exclusive admission held every slot")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Slots are returned: a plain request is admitted again.
	if _, err := svc.Run(context.Background(), workloadReq("fib", testConfig()), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrySyncAll: footprint growth from a sweep that predecodes outside
// the per-request path is folded in by SyncAll.
func TestRegistrySyncAll(t *testing.T) {
	r := NewRegistry(0)
	a, err := r.Workload("loopsum", core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats().Bytes
	for _, d := range core.Degrees() {
		if _, err := a.Predecoded(d); err != nil {
			t.Fatal(err)
		}
	}
	r.SyncAll()
	if after := r.Stats().Bytes; after <= before {
		t.Fatalf("bytes %d -> %d, want growth after SyncAll", before, after)
	}
}

// TestServiceContextCancellation: a cancelled context is honoured before any
// work is admitted.
func TestServiceContextCancellation(t *testing.T) {
	svc := New(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Run(ctx, workloadReq("fib", testConfig()), sim.WithDTB); err == nil {
		t.Fatal("want a context error")
	}
}

// TestServiceEngineThroughRegistry: the registry-backed engine builds its
// experiment workloads through the shared cache.
func TestServiceEngineThroughRegistry(t *testing.T) {
	svc := New(Options{})
	cfg := testConfig()
	engine := svc.Engine()
	rows, err := engine.Empirical(context.Background(), []string{"loopsum", "fib"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	st := svc.Stats()
	if st.Registry.Builds != 2 {
		t.Fatalf("Builds = %d, want 2 (one per workload through the registry)", st.Registry.Builds)
	}
	// Re-running the experiment is all cache hits.
	if _, err := engine.Empirical(context.Background(), []string{"loopsum", "fib"}, cfg); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Registry.Builds != 2 {
		t.Fatalf("re-run rebuilt artifacts: Builds = %d", st.Registry.Builds)
	}
}

// TestServiceEvictionRetiresPooledReplayers closes the ownership chain for
// parked replayers: only the registry and in-flight requests hold a
// program, so evicting an artifact makes its predecoded program
// unreachable with every replayer parked on it, and a request for the
// rebuilt program constructs a new replayer.
func TestServiceEvictionRetiresPooledReplayers(t *testing.T) {
	svc := New(Options{CapacityBytes: 1})
	ctx := context.Background()
	cfg := testConfig()

	// A warm run parks a replayer on loopsum's program.
	if _, err := svc.Run(ctx, workloadReq("loopsum", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats().Pool; st.Misses != 1 || st.Leased != 0 || st.Discards != 0 {
		t.Fatalf("pool = %+v, want the warmed replayer parked", st)
	}
	art, err := svc.Resolve(workloadReq("loopsum", cfg))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := art.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	program := weak.Make(pp)
	pp, art = nil, nil

	// A different program over the 1-byte budget evicts loopsum, and its
	// parked replayer goes with it.
	if _, err := svc.Run(ctx, workloadReq("fib", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Registry.Evictions == 0 {
		t.Fatalf("want an eviction: %+v", st.Registry)
	}
	runtime.GC()
	runtime.GC()
	if program.Value() != nil {
		t.Fatal("the evicted program is still reachable with its parked replayer")
	}
	// The rebuilt program starts with nothing parked.
	if _, err := svc.Run(ctx, workloadReq("loopsum", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats().Pool; st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("pool = %+v, want the rebuilt loopsum to miss", st)
	}
}

// TestStaleArtifactCheckinDiscards: a request still running on an artifact
// reference taken before its eviction works (correctness does not depend on
// residency), and the replayer it checks in is discarded with the evicted
// program: it parks there, where no request for the rebuilt program finds
// it, and is garbage once the stale reference drops.
func TestStaleArtifactCheckinDiscards(t *testing.T) {
	svc := New(Options{CapacityBytes: 1})
	ctx := context.Background()
	cfg := testConfig()

	stale, err := svc.Resolve(workloadReq("loopsum", cfg))
	if err != nil {
		t.Fatal(err)
	}
	// A different program over the 1-byte budget evicts loopsum while no
	// lease on it exists.
	if _, err := svc.Run(ctx, workloadReq("fib", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	if svc.Registry().Live(stale) {
		t.Fatal("test premise: loopsum should have been evicted")
	}
	rep, err := svc.runPooled(stale, sim.WithDTB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Output) == 0 {
		t.Fatal("stale-artifact run produced no output")
	}
	if st := svc.Stats().Pool; st.Leased != 0 || st.Discards != 0 {
		t.Fatalf("pool = %+v, want the stale run's replayer parked on its program", st)
	}
	pp, err := stale.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	program := weak.Make(pp)
	pp = nil

	// The resident loopsum is a rebuild, and the stale replayer never serves it.
	if _, err := svc.Run(ctx, workloadReq("loopsum", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Registry.Builds != 3 || st.Pool.Hits != 0 {
		t.Fatalf("stats = %+v, want loopsum rebuilt and its stale replayer unused", st)
	}
	stale = nil
	runtime.GC()
	runtime.GC()
	if program.Value() != nil {
		t.Fatal("the evicted program is still reachable with the replayer parked on it")
	}
}

// TestFailedRunChargesItsReplayer: a run that fails, here over its
// instruction bound, still parks its replayer on the program, and the
// registry charges it.  Otherwise every class a client sweeps through
// max_instructions would park a replayer the byte budget cannot see.
func TestFailedRunChargesItsReplayer(t *testing.T) {
	svc := New(Options{})
	cfg := testConfig()
	cfg.MaxInstructions = 10 // far short of loopsum's run
	if _, err := svc.Run(context.Background(), workloadReq("loopsum", cfg), sim.WithCache); err == nil {
		t.Fatal("a run over its instruction bound succeeded")
	}
	art, err := svc.Resolve(workloadReq("loopsum", cfg))
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats().Pool; st.Misses != 1 || st.Leased != 0 || st.Discards != 0 {
		t.Fatalf("pool = %+v, want the failed run's replayer parked", st)
	}
	if got, want := svc.Registry().Stats().Bytes, int64(art.FootprintBytes()); got != want {
		t.Fatalf("registry charges %d B, the artifact holds %d B", got, want)
	}
}

// TestParkedReplayersUnderConcurrency: goroutines acquire, derive, and then
// release or discard, across every strategy and three configurations on
// shared programs.  Every report equals a full simulation, no lease is left
// out, and no program keeps more than the bound parked.
func TestParkedReplayersUnderConcurrency(t *testing.T) {
	const workers, goroutines, rounds = 2, 8, 30
	base := testConfig()
	cfgs := []sim.Config{base, base, base}
	cfgs[1].MaxInstructions = 4_000_000
	cfgs[2].MaxDepth = 5_000
	var pps []*sim.PredecodedProgram
	want := map[*sim.PredecodedProgram]map[sim.Strategy][]*sim.Report{}
	for _, name := range []string{"loopsum", "fib", "sieve"} {
		a, err := core.BuildWorkload(name, core.LevelStack)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := a.Predecoded(base.Degree)
		if err != nil {
			t.Fatal(err)
		}
		pps = append(pps, pp)
		want[pp] = map[sim.Strategy][]*sim.Report{}
		for _, strategy := range sim.Strategies() {
			for _, cfg := range cfgs {
				rep, err := core.RunSimulated(a, strategy, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want[pp][strategy] = append(want[pp][strategy], rep)
			}
		}
	}

	p := NewPool(workers)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pp := pps[(g+i)%len(pps)]
				strategy := sim.Strategies()[(g*7+i)%len(sim.Strategies())]
				c := (g + 2*i) % len(cfgs)
				lease, err := p.Acquire(pp, strategy, cfgs[c])
				if err != nil {
					t.Error(err)
					return
				}
				rep, err := lease.R.ReplayDerived()
				if err != nil {
					t.Error(err)
				} else if diff := sim.DiffReports(rep, want[pp][strategy][c]); diff != "" {
					t.Errorf("%v under config %d: report differs from the simulation: %s", strategy, c, diff)
				}
				if i%5 == 4 {
					lease.Discard()
				} else {
					lease.Release()
				}
			}
		}()
	}
	wg.Wait()

	if st := p.Stats(); st.Leased != 0 {
		t.Fatalf("Leased = %d after every goroutine returned, want 0", st.Leased)
	}
	bound := workers * len(sim.Strategies())
	for _, pp := range pps {
		parked := 0
		for _, strategy := range sim.Strategies() {
			for _, cfg := range cfgs {
				for pp.Unpark(strategy, cfg) != nil {
					parked++
				}
			}
		}
		if parked > bound {
			t.Errorf("a program keeps %d replayers parked, above the bound of %d", parked, bound)
		}
	}
}

// TestServiceRequestsAreDerived: the request hot path serves trace-derived
// reports — the trace is recorded once on the cold request and every
// organisation's report streams from it thereafter.
func TestServiceRequestsAreDerived(t *testing.T) {
	svc := New(Options{})
	ctx := context.Background()
	cfg := testConfig()
	for _, strategy := range core.Strategies() {
		rep, err := svc.Run(ctx, workloadReq("fib", cfg), strategy)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Derived {
			t.Errorf("%v: pooled report not trace-derived", strategy)
		}
	}
}

// TestRegistryAccountsTraceFootprint: the recorded trace is charged to the
// registry's byte budget.  After a derived request the artifact's accounted
// bytes cover the trace's SizeBytes, so the LRU sees it.
func TestRegistryAccountsTraceFootprint(t *testing.T) {
	svc := New(Options{})
	ctx := context.Background()
	cfg := testConfig()

	art, err := svc.Resolve(workloadReq("loopsum", testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	before := svc.Registry().Stats().Bytes

	// The first derived request records the trace (and builds the compiled
	// backend it runs on); Sync folds both into the accounting.
	if _, err := svc.Run(ctx, workloadReq("loopsum", cfg), sim.Conventional); err != nil {
		t.Fatal(err)
	}
	after := svc.Registry().Stats().Bytes

	pp, err := art.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pp.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if growth := after - before; growth < int64(tr.SizeBytes()) {
		t.Errorf("registry bytes grew by %d after the derived request, want at least the trace's %d",
			growth, tr.SizeBytes())
	}
	// The registry accounts the footprint plus the cached source text, so its
	// total must cover the grown footprint in full.
	if after < int64(art.FootprintBytes()) {
		t.Errorf("registry accounts %d bytes, artifact footprint is %d — Sync out of date", after, art.FootprintBytes())
	}
}

// TestTraceDiesWithEvictedArtifact closes the ownership chain for the trace:
// when the registry evicts an artifact, the trace cached on its binding goes
// with it — the registry's accounted bytes drop by the full footprint
// including the trace, and nothing retains the predecoded program.
func TestTraceDiesWithEvictedArtifact(t *testing.T) {
	svc := New(Options{CapacityBytes: 1})
	ctx := context.Background()
	cfg := testConfig()

	// Cold request: builds loopsum, records its trace, serves derived.
	if _, err := svc.Run(ctx, workloadReq("loopsum", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	art, err := svc.Resolve(workloadReq("loopsum", testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := art.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pp.Trace()
	if err != nil {
		t.Fatal(err)
	}
	withTrace := svc.Registry().Stats().Bytes
	if withTrace < int64(tr.SizeBytes()) {
		t.Fatalf("accounted bytes %d below the trace size %d", withTrace, tr.SizeBytes())
	}

	// A different program over the 1-byte budget evicts loopsum; its bytes —
	// trace included — leave the budget in one piece.
	if _, err := svc.Run(ctx, workloadReq("fib", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	if svc.Registry().Live(art) {
		t.Fatal("test premise: loopsum should have been evicted")
	}
	dropped := withTrace - svc.Registry().Stats().Bytes + foot(t, svc, "fib", cfg)
	if dropped < int64(tr.SizeBytes()) {
		t.Errorf("eviction released %d bytes, want at least the traced artifact's %d-byte trace",
			dropped, tr.SizeBytes())
	}
	// A fresh request for loopsum rebuilds and re-records from scratch: the
	// evicted trace is gone, not resurrected from a side cache.
	art2, err := svc.Resolve(workloadReq("loopsum", testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if art2 == art {
		t.Fatal("evicted artifact was returned again")
	}
}

// foot returns the accounted footprint of one resident workload artifact.
func foot(t *testing.T, svc *Service, name string, cfg sim.Config) int64 {
	t.Helper()
	a, err := svc.Resolve(workloadReq(name, testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return int64(a.FootprintBytes())
}

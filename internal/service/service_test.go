package service

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

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
// the least recently used entry when a second arrives, and the eviction
// callback fires so pooled replayers can be retired.
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
	var evicted []*core.Artifact
	r.SetOnEvict(func(a *core.Artifact) { evicted = append(evicted, a) })

	a, err := r.Source("loopsum", srcA, core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	// The single over-budget entry is retained (no thrashing) ...
	if st := r.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats after first build = %+v, want the entry retained", st)
	}
	// ... until a newer entry arrives, which evicts it.
	if _, err := r.Source("fib", srcB, core.LevelStack); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats after second build = %+v, want 1 eviction, 1 entry", st)
	}
	if len(evicted) != 1 || evicted[0] != a {
		t.Fatalf("eviction callback got %v, want the first artifact", evicted)
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

// TestPoolConfigFingerprint: equivalent configs (defaults resolved) share a
// class; different configs do not.
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
	defaulted := cfg
	defaulted.MaxDepth = sim.DefaultConfig().MaxDepth
	if cfg.MaxDepth == defaulted.MaxDepth && zeroDepth.Fingerprint() != defaulted.Fingerprint() {
		t.Fatal("zero MaxDepth must fingerprint like the default")
	}

	bigger := cfg
	bigger.MaxInstructions = cfg.MaxInstructions + 1
	l2, err := p.Acquire(pp, sim.WithCache, bigger)
	if err != nil {
		t.Fatal(err)
	}
	if l2.R == r1 {
		t.Fatal("different MaxInstructions must be a different pool class")
	}
}

// TestPoolInvalidate: invalidation drops idle replayers and discards
// checked-out ones at release instead of repooling them.
func TestPoolInvalidate(t *testing.T) {
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
	idle, err := p.Acquire(pp, sim.Expanded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idle.Release()
	leased, err := p.Acquire(pp, sim.Expanded, cfg) // the idle one, checked out
	if err != nil {
		t.Fatal(err)
	}
	extra, err := p.Acquire(pp, sim.Expanded, cfg) // a second, also out
	if err != nil {
		t.Fatal(err)
	}

	p.Invalidate(pp)
	leased.Release()
	extra.Release()
	st := p.Stats()
	if st.Idle != 0 {
		t.Fatalf("Idle = %d, want 0 after invalidation", st.Idle)
	}
	if st.Discards != 2 {
		t.Fatalf("Discards = %d, want both outstanding leases discarded", st.Discards)
	}
	// The dead-set must not leak: a fresh acquire/release repopulates.
	l, err := p.Acquire(pp, sim.Expanded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	if st := p.Stats(); st.Idle != 1 {
		t.Fatalf("Idle = %d, want 1 after re-pooling post-invalidation", st.Idle)
	}
}

// TestPoolGlobalIdleBound: a client iterating distinct configurations (each
// a distinct fingerprint, hence a distinct pool key) cannot grow the idle
// set without limit — beyond 16×maxIdlePerKey total, the stalest idle entry
// is evicted to make room, so saturation never stops hot keys from pooling.
func TestPoolGlobalIdleBound(t *testing.T) {
	cfg := testConfig()
	a, err := core.BuildWorkload("fib", core.LevelStack)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := a.Predecoded(cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(1) // global bound: 16
	for i := 0; i < 40; i++ {
		c := cfg
		c.MaxInstructions = int64(1000 + i) // distinct fingerprint each time
		l, err := p.Acquire(pp, sim.Conventional, c)
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
	}
	st := p.Stats()
	if st.Idle > 16 {
		t.Fatalf("Idle = %d, want at most the global bound of 16", st.Idle)
	}
	if st.Discards != 40-16 {
		t.Fatalf("Discards = %d, want %d evicted beyond the bound", st.Discards, 40-16)
	}
	// The saturated pool still pools fresh check-ins (evicting the stalest),
	// so a hot key keeps hitting.
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
		t.Fatal("hot key not pooled after the global bound was reached")
	}
}

// TestWarmedRequestNoRebuild is the acceptance pin: a repeated request does
// zero artifact rebuild work (registry Builds constant, Hits rising) and
// replays on a pooled simulator (pool Hits rising), with identical output.
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
		t.Fatalf("warm request did not reuse the pooled replayer: %+v", st.Pool)
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

// TestStaleArtifactCheckinDiscards: a request running on an artifact
// reference obtained *before* its eviction must not repool its replayer —
// the pool key is retired (a rebuilt artifact is a fresh program instance),
// so a repooled replayer would be unreachable and leak for the process
// lifetime.  Pool.Invalidate cannot see this case (no lease was outstanding
// at invalidation time); the service's liveness check at check-in is the
// backstop.
func TestStaleArtifactCheckinDiscards(t *testing.T) {
	svc := New(Options{CapacityBytes: 1})
	ctx := context.Background()
	cfg := testConfig()

	stale, err := svc.Resolve(workloadReq("loopsum", testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// A different program over the 1-byte budget evicts loopsum while no
	// lease on it exists.
	if _, err := svc.Run(ctx, workloadReq("fib", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	if svc.Registry().Live(stale) {
		t.Fatal("test premise: the first artifact should have been evicted")
	}
	idleBefore := svc.Stats().Pool.Idle

	// Running on the stale reference still works (correctness must not
	// depend on cache residency) ...
	rep, err := svc.runPooled(stale, sim.WithDTB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Output) == 0 {
		t.Fatal("stale-artifact run produced no output")
	}
	// ... but its replayer is discarded at check-in, not parked under a
	// retired key.
	st := svc.Stats().Pool
	if st.Idle != idleBefore {
		t.Fatalf("Idle grew %d -> %d: replayer repooled under an evicted program", idleBefore, st.Idle)
	}
	if st.Discards == 0 {
		t.Fatalf("want the stale replayer discarded: %+v", st)
	}
}

// TestServiceEvictionRetiresPooledReplayers wires the whole ownership chain:
// evicting an artifact invalidates the pool entries warmed on its predecoded
// programs.
func TestServiceEvictionRetiresPooledReplayers(t *testing.T) {
	svc := New(Options{CapacityBytes: 1})
	ctx := context.Background()
	cfg := testConfig()
	if _, err := svc.Run(ctx, workloadReq("loopsum", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Pool.Idle != 1 {
		t.Fatalf("Idle = %d, want the warmed replayer pooled", st.Pool.Idle)
	}
	// A different program over the 1-byte budget evicts loopsum, which must
	// drop its pooled replayer.
	if _, err := svc.Run(ctx, workloadReq("fib", cfg), sim.WithDTB); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Registry.Evictions == 0 {
		t.Fatalf("want an eviction: %+v", st.Registry)
	}
	if st.Pool.Invalidated == 0 {
		t.Fatalf("eviction did not retire pooled replayers: %+v", st.Pool)
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

package service

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"uhm/internal/core"
	"uhm/internal/faultinject"
	"uhm/internal/sim"
	"uhm/internal/store"
)

// Options configures a Service.
type Options struct {
	// CapacityBytes is the registry's byte budget (0 = unbounded).
	CapacityBytes int64
	// MaxIdlePerKey bounds the warmed replayers kept per (program, strategy,
	// config) class; zero selects runtime.GOMAXPROCS(0).
	MaxIdlePerKey int
	// Workers bounds concurrent requests, like core.Engine bounds grid
	// cells; zero selects runtime.GOMAXPROCS(0).
	Workers int
	// QueueTimeout bounds how long admission may queue for a request slot
	// when all are occupied; past it the request is shed with a typed
	// *OverloadError instead of blocking unboundedly.  Zero waits as long as
	// the request context allows (the pre-timeout behaviour).
	QueueTimeout time.Duration
	// Store, if set, attaches a content-addressed disk tier behind the
	// registry's in-memory LRU: misses read through it, builds write through
	// to it, and Warmstart preloads from it.  Nil runs memory-only (the
	// pre-persistence behaviour).
	Store *store.Store
}

// Stats snapshots every counter the service exposes.
type Stats struct {
	Registry RegistryStats
	Pool     PoolStats
	Requests RequestStats
}

// RequestStats are the service-level robustness counters.
type RequestStats struct {
	// Overloads counts requests shed at admission because no slot freed
	// within the queue timeout.
	Overloads int64
	// Panics counts request panics recovered at the service boundary (each
	// also quarantines its artifact).
	Panics int64
	// DeriveFallbacks counts requests whose trace derivation declined and
	// fell back to a full replay.
	DeriveFallbacks int64
}

// Service is the façade over the registry and the pool: one instance serves
// any number of concurrent requests, building each distinct program once and
// replaying it on warmed simulators.  cmd/uhmd exposes it over HTTP;
// cmd/uhmrun and cmd/uhmbench drive it in-process.
type Service struct {
	registry     *Registry
	pool         *Pool
	workers      int
	slots        chan struct{}
	queueTimeout time.Duration
	// exclusiveMu serializes AdmitExclusive callers so two multi-slot
	// acquirers cannot interleave partial acquisitions and deadlock.
	exclusiveMu sync.Mutex
	// runner is the one Runner every Admit callback receives; sharing it
	// keeps admission allocation-free.
	runner Runner

	overloads       atomic.Int64
	panics          atomic.Int64
	deriveFallbacks atomic.Int64
}

// New constructs a Service and wires the registry's eviction callback to the
// pool, so evicting an artifact also retires the replayers warmed on its
// predecoded programs.
func New(opts Options) *Service {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		registry:     NewRegistry(opts.CapacityBytes),
		pool:         NewPool(opts.MaxIdlePerKey),
		workers:      workers,
		slots:        make(chan struct{}, workers),
		queueTimeout: opts.QueueTimeout,
	}
	s.runner.s = s
	if opts.Store != nil {
		s.registry.SetStore(opts.Store)
	}
	s.registry.SetOnEvict(func(a *core.Artifact) {
		for _, pp := range a.CachedPredecoded() {
			s.pool.Invalidate(pp)
		}
	})
	return s
}

// Warmstart preloads the hottest max artifacts (max < 0 = all) from the
// attached disk tier; see Registry.Warmstart.  A no-op without a store.
func (s *Service) Warmstart(max int) (int, error) {
	return s.registry.Warmstart(max)
}

// Registry returns the artifact registry (shared, concurrency-safe).
func (s *Service) Registry() *Registry { return s.registry }

// Pool returns the replayer pool (shared, concurrency-safe).
func (s *Service) Pool() *Pool { return s.pool }

// Workers returns the request-parallelism bound.
func (s *Service) Workers() int { return s.workers }

// Stats snapshots the registry, pool and request counters.
func (s *Service) Stats() Stats {
	return Stats{
		Registry: s.registry.Stats(),
		Pool:     s.pool.Stats(),
		Requests: RequestStats{
			Overloads:       s.overloads.Load(),
			Panics:          s.panics.Load(),
			DeriveFallbacks: s.deriveFallbacks.Load(),
		},
	}
}

// Engine returns a core.Engine whose workload builds go through the
// registry: experiment sweeps run by the CLI and by the server share the
// same artifact cache and therefore the same code path.
func (s *Service) Engine() core.Engine {
	return core.Engine{Workers: s.workers, Build: s.registry.Workload}
}

// acquire takes a request slot, honouring cancellation while waiting.  An
// already-cancelled context is refused before a slot is taken (select picks
// randomly among ready cases, so the explicit check is load-bearing).  With a
// queue timeout configured, waiting is bounded: when every slot stays
// occupied for the whole window the request is shed with a typed
// *OverloadError rather than queueing unboundedly.
func (s *Service) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ferr := faultinject.Fire(faultinject.SiteAdmission); ferr != nil {
		s.overloads.Add(1)
		return &OverloadError{Waited: 0, RetryAfter: s.retryAfter()}
	}
	// Free slot: admit without arming the timer at all.
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if s.queueTimeout <= 0 {
		select {
		case s.slots <- struct{}{}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	t := time.NewTimer(s.queueTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		s.overloads.Add(1)
		return &OverloadError{Waited: s.queueTimeout, RetryAfter: s.retryAfter()}
	}
}

// retryAfter suggests a client back-off: the queue timeout rounded up to a
// whole second (the granularity of the HTTP Retry-After header), at least 1s.
func (s *Service) retryAfter() time.Duration {
	ra := s.queueTimeout.Round(time.Second)
	if ra < s.queueTimeout || ra < time.Second {
		ra += time.Second
	}
	return ra
}

func (s *Service) release() { <-s.slots }

// AdmitExclusive runs fn holding every request slot.  Work that fans out
// internally to the full worker width — an experiment sweep through
// Engine() — must be admitted here, not through Admit: holding one slot
// while spawning Workers goroutines would put workers² of simulation on an
// N-worker box.  With all slots held, total concurrency stays exactly at
// the configured bound.  Acquisition honours cancellation; concurrent
// exclusive callers are serialized so partial acquisitions cannot deadlock
// against each other, and plain requests drain independently.
func (s *Service) AdmitExclusive(ctx context.Context, fn func(ctx context.Context) error) error {
	s.exclusiveMu.Lock()
	defer s.exclusiveMu.Unlock()
	acquired := 0
	defer func() {
		for ; acquired > 0; acquired-- {
			s.release()
		}
	}()
	for i := 0; i < s.workers; i++ {
		if err := s.acquire(ctx); err != nil {
			return err
		}
		acquired++
	}
	return fn(ctx)
}

// Request names one program and the point of the simulation space to run it
// at: a built-in Workload, or submitted Source labelled by Name, built at
// Level and simulated under Config.
type Request struct {
	Name     string
	Workload string // built-in, when non-empty
	Source   string // submitted text, otherwise
	Level    core.Level
	Config   sim.Config
}

// Resolve returns the (possibly cached) artifact the request names: the
// built-in workload, or the content-addressed build of its source.
func (s *Service) Resolve(req *Request) (*core.Artifact, error) {
	if req.Workload != "" {
		return s.registry.Workload(req.Workload, req.Level)
	}
	return s.registry.Source(req.Name, req.Source, req.Level)
}

// Admit runs fn holding one request slot and hands it the Runner that runs
// and compares under that slot.  However many requests fn serves, they cost
// one slot acquisition and one release: a uhmd batch is one Admit, a single
// request is a batch of one.  A call occupies its slot for its whole
// duration, so the -workers bound caps total simulation concurrency, and
// admission sheds with a typed *OverloadError when no slot frees within the
// queue timeout.
//
// The slot is released by defer, so it cannot leak even if fn panics; each
// run keeps its own panic isolation (runPooled recovers into a typed
// *PanicError and quarantines the artifact), so one poisoned request fails
// itself without failing its siblings.
func (s *Service) Admit(ctx context.Context, fn func(ctx context.Context, r *Runner) error) error {
	if err := s.acquire(ctx); err != nil {
		return err
	}
	defer s.release()
	return fn(ctx, &s.runner)
}

// Run admits one request and runs it under one organisation.  The returned
// report is the caller's own copy.
func (s *Service) Run(ctx context.Context, req *Request, strategy sim.Strategy) (rep *sim.Report, err error) {
	err = s.Admit(ctx, func(ctx context.Context, r *Runner) error {
		rep, err = r.Run(ctx, req, strategy)
		return err
	})
	return rep, err
}

// Compare admits one request and compares every organisation on it; see
// Runner.Compare.
func (s *Service) Compare(ctx context.Context, req *Request) (reports []*sim.Report, err error) {
	err = s.Admit(ctx, func(ctx context.Context, r *Runner) error {
		reports, err = r.Compare(ctx, req)
		return err
	})
	return reports, err
}

// Runner runs and compares requests under a slot Admit already holds.  It is
// valid only inside the Admit callback that received it: using one outside
// would bypass admission.
type Runner struct {
	s *Service
}

// Run resolves the request and simulates it under one organisation on a
// pooled replayer.  The returned report is the caller's own copy.
func (r *Runner) Run(ctx context.Context, req *Request, strategy sim.Strategy) (*sim.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	art, err := r.s.Resolve(req)
	if err != nil {
		return nil, err
	}
	return r.s.runPooled(art, strategy, req.Config)
}

// Compare resolves the request, runs every organisation on pooled replayers
// and verifies the paper's equivalence invariant.  Reports come back in
// core.Strategies() order; on divergence they are returned alongside the
// error so the caller can render a diff.
func (r *Runner) Compare(ctx context.Context, req *Request) ([]*sim.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	art, err := r.s.Resolve(req)
	if err != nil {
		return nil, err
	}
	var reports []*sim.Report
	for _, strategy := range core.Strategies() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := r.s.runPooled(art, strategy, req.Config)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", strategy, err)
		}
		reports = append(reports, rep)
	}
	if err := sim.VerifyOutputs(reports); err != nil {
		return reports, err
	}
	return reports, nil
}

// runPooled is the request hot path: predecode (cached on the artifact),
// check out a warmed replayer, derive the report from the artifact's shared
// execution trace (recorded once by its binding for every degree, counted in
// its footprint, falling back to a full replay when the trace cannot answer
// exactly), clone the report, check the replayer back in, and refresh the
// registry's byte accounting — which now includes the cached trace, so it is
// evicted with its artifact.  A warm replayer answers from the report it
// holds, which is read-only, aliases the shared trace's output and stays the
// replayer's until its next Replay: only the clone may leave the lease.
//
// The whole path runs under panic isolation: a crash anywhere inside —
// predecode, checkout, replay — is recovered into a typed *PanicError, the
// artifact is quarantined as a poison pill (so the same program cannot
// repeatedly kill workers), and the deferred lease discard guarantees no
// replayer leaks on the way out.
func (s *Service) runPooled(art *core.Artifact, strategy sim.Strategy, cfg sim.Config) (rep *sim.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			s.registry.QuarantineArtifact(art)
			rep, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if ferr := faultinject.Fire(faultinject.SiteServiceRun); ferr != nil {
		return nil, ferr
	}
	pp, err := art.Predecoded(cfg.Degree)
	if err != nil {
		return nil, err
	}
	lease, err := s.pool.Acquire(pp, strategy, cfg)
	if err != nil {
		return nil, err
	}
	// Discard is idempotent with the checkin below: on the normal and error
	// paths it is a no-op, and on a panic it is the backstop that keeps the
	// lease accounting exact.
	defer lease.Discard()
	// ReplayDerived answers from the held or streamed derivation, or by full
	// replay on a decline; the reports are identical, so a decline costs speed.
	out, err := lease.R.ReplayDerived()
	if err != nil {
		// A failed replay leaves the replayer's structures in a defined but
		// partially-run state; Replay resets everything up front, so reuse
		// is still sound — check in normally.
		s.checkin(art, lease)
		return nil, err
	}
	if !out.Derived {
		s.deriveFallbacks.Add(1)
	}
	out = out.Clone()
	s.checkin(art, lease)
	s.registry.Sync(art)
	return out, nil
}

// checkin returns a lease, repooling only when the artifact is still
// resident in the registry.  The liveness check closes the eviction race
// Pool.Invalidate alone cannot see: a lease taken on a stale artifact after
// its eviction (no outstanding lease existed at invalidation time, so no
// dead mark) would otherwise repopulate an unreachable pool key.  An
// eviction racing this check is still safe — the lease is outstanding until
// checkin runs, so Invalidate marks the program dead and the check-in
// discards.
func (s *Service) checkin(art *core.Artifact, lease *Lease) {
	// The spurious-invalidation chaos site: invalidating the program while
	// its own lease is still outstanding exercises the dead-marking that
	// normally only registry evictions drive — the checkin below must then
	// discard, and the accounting must stay exact.
	if faultinject.Fire(faultinject.SitePoolInvalidate) != nil {
		s.pool.Invalidate(lease.key.pp)
	}
	if s.registry.Live(art) {
		lease.Release()
	} else {
		lease.Discard()
	}
}

// Conformance runs the full differential cross-product on one source
// program.  It deliberately does not use the registry or the pool: the
// harness's value is that it rebuilds everything from scratch and checks the
// cached paths against the fresh ones.
func (s *Service) Conformance(ctx context.Context, name, src string, cfg sim.Config) ([]core.Divergence, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.CheckConformance(name, src, cfg)
}

// Chaos conformance: the robustness counterpart of the differential
// conformance sweep (uhmbench -gen).  Where that sweep checks that every
// organisation computes the same answer, the chaos sweep checks that the
// service stack keeps its invariants under injected failure: each seeded
// fault plan (faultinject.RandomPlan) is activated against a fresh Service
// and a concurrent mixed workload, and afterwards the books must balance
// exactly — no leaked or double-returned replayers, byte-exact registry
// accounting, every response correct-or-structured-error, failed builds
// retryable, and the drain always terminating.  A violated invariant is
// reported with its reproducer seed, like a generator divergence.
package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"uhm/internal/core"
	"uhm/internal/faultinject"
	"uhm/internal/sim"
	"uhm/internal/store"
)

// chaosSources are the sweep's mixed workload: small, quick programs (a
// chaos plan runs hundreds of requests over them under the race detector),
// different enough in shape — loop, recursion, array — to exercise distinct
// artifact footprints and replayer classes.
var chaosSources = []struct{ name, src string }{
	{"chaos-loop", `
program chaosloop;
var i, sum;
begin
  i := 1;
  sum := 0;
  while i <= 12 do
  begin
    sum := sum + i * i;
    i := i + 1
  end;
  print sum
end.`},
	{"chaos-calls", `
program chaoscalls;
var n;
proc tri(k);
begin
  if k < 1 then return 0
  else return k + tri(k - 1)
end;
begin
  n := 9;
  print tri(n)
end.`},
	{"chaos-array", `
program chaosarray;
var a[8], i, acc;
begin
  i := 0;
  while i < 8 do
  begin
    a[i] := i * 3 - 1;
    i := i + 1
  end;
  acc := 0;
  i := 7;
  while i >= 0 do
  begin
    acc := acc + a[i];
    i := i - 1
  end;
  print acc
end.`},
}

// chaosProgram is one workload program with its oracle output, computed
// outside the service under test.
type chaosProgram struct {
	name, src string
	level     core.Level
	want      []int64
	footprint int64
}

func (p chaosProgram) request(cfg sim.Config) *Request {
	return &Request{Name: p.name, Source: p.src, Level: p.level, Config: cfg}
}

// chaosProgams builds the reference set once per sweep: the oracle outputs
// the correctness invariant compares against, and the steady-state footprint
// the byte budget is derived from.
func chaosPrograms() ([]chaosProgram, error) {
	progs := make([]chaosProgram, 0, len(chaosSources))
	for _, p := range chaosSources {
		art, err := core.BuildSource(p.name, p.src, core.LevelStack)
		if err != nil {
			return nil, fmt.Errorf("chaos reference %s: %w", p.name, err)
		}
		want, err := art.Reference()
		if err != nil {
			return nil, fmt.Errorf("chaos reference %s: %w", p.name, err)
		}
		if _, err := art.Predecoded(core.DefaultConfig().Degree); err != nil {
			return nil, fmt.Errorf("chaos reference %s: %w", p.name, err)
		}
		progs = append(progs, chaosProgram{
			name: p.name, src: p.src, level: core.LevelStack,
			want: want, footprint: int64(art.FootprintBytes()),
		})
	}
	return progs, nil
}

// ChaosOptions configures a chaos sweep.  The zero value selects defaults
// sized so that hundreds of plans run in seconds under the race detector.
type ChaosOptions struct {
	// Clients is the number of concurrent request goroutines per plan
	// (default 4); Requests is how many requests each issues (default 12).
	Clients  int
	Requests int
	// QueueTimeout is the per-plan service's admission bound (default 2s —
	// generous, because chaos asserts invariants, not latency).
	QueueTimeout time.Duration
	// PlanTimeout is the drain watchdog: a plan whose clients have not all
	// returned within it is a "drain did not terminate" violation
	// (default 30s).
	PlanTimeout time.Duration
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Requests <= 0 {
		o.Requests = 12
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 2 * time.Second
	}
	if o.PlanTimeout <= 0 {
		o.PlanTimeout = 30 * time.Second
	}
	return o
}

// ChaosViolation is one invariant broken under one fault plan.
type ChaosViolation struct {
	// Seed reproduces the plan via faultinject.RandomPlan(Seed).
	Seed int64
	// Plan is the plan rendered in ParseSpec syntax.
	Plan string
	// Invariant names the broken guarantee; Detail describes the evidence.
	Invariant string
	Detail    string
}

func (v ChaosViolation) String() string {
	return fmt.Sprintf("seed %d [%s]: %s (plan %s)", v.Seed, v.Invariant, v.Detail, v.Plan)
}

// The chaos invariant names.
const (
	ChaosCorrectness = "correct-or-structured-error" // wrong output, or an unclassified error
	ChaosLeak        = "replayer-leak"               // leases outstanding after drain
	ChaosAccounting  = "footprint-accounting"        // registry byte books unbalanced or over budget
	ChaosRetry       = "retry-after-failure"         // a program still failing after faults stopped
	ChaosDrain       = "drain-termination"           // clients did not all return within the watchdog
	ChaosEscape      = "panic-escape"                // a panic crossed the service boundary
)

// ChaosResult summarises a sweep.
type ChaosResult struct {
	Plans      int
	Requests   int64
	Violations []ChaosViolation
	// Fired aggregates, per site, how often the plans' rules actually
	// injected — a sweep that never fires is not testing anything.
	Fired map[faultinject.Site]int64
}

// ChaosSweep runs fault plans for seeds start..start+n-1, each against a
// fresh Service, and returns every invariant violation.  Plans run one at a
// time (the active plan is process-global); the workload within each plan is
// concurrent.  The optional progress callback receives (plans done,
// violations so far).
func ChaosSweep(ctx context.Context, start int64, n int, opts ChaosOptions,
	progress func(done, violations int)) (*ChaosResult, error) {
	opts = opts.withDefaults()
	progs, err := chaosPrograms()
	if err != nil {
		return nil, err
	}
	// A budget of two-thirds of the steady-state footprint — which counts
	// each program's source, as the registry always has — keeps the LRU
	// under genuine pressure: the working set never fully fits, so evictions
	// and rebuild-after-evict run constantly even before injected ones.
	var total int64
	for _, p := range progs {
		total += p.footprint
	}
	res := &ChaosResult{Fired: make(map[faultinject.Site]int64)}
	for seed := start; seed < start+int64(n); seed++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vs, reqs, fired := runChaosPlan(ctx, seed, progs, total*2/3, opts)
		res.Plans++
		res.Requests += reqs
		res.Violations = append(res.Violations, vs...)
		for site, c := range fired {
			res.Fired[site] += c
		}
		if progress != nil {
			progress(res.Plans, len(res.Violations))
		}
	}
	return res, nil
}

// runChaosPlan activates one seeded plan against a fresh service, drives the
// concurrent workload, and checks every invariant after the drain.
func runChaosPlan(ctx context.Context, seed int64, progs []chaosProgram,
	capacity int64, opts ChaosOptions) ([]ChaosViolation, int64, map[faultinject.Site]int64) {
	plan := faultinject.RandomPlan(seed)
	var mu sync.Mutex
	var violations []ChaosViolation
	violate := func(invariant, format string, args ...any) {
		mu.Lock()
		violations = append(violations, ChaosViolation{
			Seed: seed, Plan: plan.String(), Invariant: invariant,
			Detail: fmt.Sprintf(format, args...),
		})
		mu.Unlock()
	}

	// Each plan gets its own disk tier in a throwaway directory, so the
	// store fault sites (write, read, verify) fire against real files and a
	// corrupt or unwritable tier must degrade to clean rebuilds — never to a
	// wrong answer or an unclassified error.  If the temp dir cannot be made
	// the plan simply runs memory-only, as a store-less service would.
	var tier *store.Store
	if dir, derr := os.MkdirTemp("", "uhm-chaos-store-*"); derr == nil {
		defer os.RemoveAll(dir)
		tier, _ = store.Open(dir)
	}

	svc := New(Options{
		CapacityBytes: capacity,
		Workers:       max(2, opts.Clients-1), // fewer slots than clients: admission queues
		QueueTimeout:  opts.QueueTimeout,
		Store:         tier,
	})
	restore := faultinject.Activate(plan)
	var requests int64

	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			// Each client draws its request mix from its own seeded stream,
			// so the workload shape — programs, strategies, budgets — is
			// reproducible per seed even though interleaving is not.
			rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
			strategies := core.Strategies()
			for i := 0; i < opts.Requests; i++ {
				p := progs[rng.Intn(len(progs))]
				cfg := core.DefaultConfig()
				if rng.Intn(4) == 0 {
					cfg.MaxInstructions = 1_000_000 // a second replayer class
				}
				func() {
					defer func() {
						if v := recover(); v != nil {
							violate(ChaosEscape, "client %d request %d: panic crossed the service boundary: %v", client, i, v)
						}
					}()
					mu.Lock()
					requests++
					mu.Unlock()
					if rng.Intn(8) == 0 {
						reports, err := svc.Compare(ctx, p.request(cfg))
						checkChaosResponse(violate, p, firstOutput(reports), err)
						return
					}
					strategy := strategies[rng.Intn(len(strategies))]
					rep, err := svc.Run(ctx, p.request(cfg), strategy)
					var out []int64
					if rep != nil {
						out = rep.Output
					}
					checkChaosResponse(violate, p, out, err)
				}()
			}
		}(c)
	}

	// The drain watchdog: every client must return.  A wedged client — a
	// request blocked forever on a slot, a lost singleflight waiter — is
	// exactly the failure mode the queue timeout and panic isolation exist
	// to prevent.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(opts.PlanTimeout):
		violate(ChaosDrain, "clients still running after %s", opts.PlanTimeout)
		restore()
		return violations, requests, plan.Fires()
	}
	restore()

	// Post-drain invariants, with injection off.
	st := svc.Stats()
	if st.Pool.Leased != 0 {
		violate(ChaosLeak, "%d replayers still leased after drain", st.Pool.Leased)
	}
	if err := svc.Registry().VerifyAccounting(); err != nil {
		violate(ChaosAccounting, "%v", err)
	}
	// Re-reading every footprint must reconcile the budget exactly: no
	// phantom bytes survive failed builds, evictions or quarantines.
	svc.Registry().SyncAll()
	if err := svc.Registry().VerifyAccounting(); err != nil {
		violate(ChaosAccounting, "after SyncAll: %v", err)
	}
	if st := svc.Registry().Stats(); st.CapacityBytes > 0 && st.Bytes > st.CapacityBytes {
		violate(ChaosAccounting, "resident %d bytes exceeds the %d-byte budget after SyncAll", st.Bytes, st.CapacityBytes)
	}

	// Retry-after-failure: with faults off, every program must serve again —
	// singleflight must not have cached an injected failure — unless a panic
	// rule quarantined it, in which case the refusal must be the typed one.
	for _, p := range progs {
		rep, err := svc.Run(ctx, p.request(core.DefaultConfig()), core.WithDTB)
		var qe *QuarantineError
		switch {
		case err == nil && slices.Equal(rep.Output, p.want):
		case errors.As(err, &qe):
		case err == nil:
			violate(ChaosRetry, "%s: post-fault output %v, want %v", p.name, rep.Output, p.want)
		default:
			violate(ChaosRetry, "%s: still failing after faults stopped: %v", p.name, err)
		}
	}
	return violations, requests, plan.Fires()
}

// checkChaosResponse enforces correct-or-structured-error on one response:
// a nil error must come with the oracle's exact output, and a non-nil error
// must be classifiable — injected, overload, panic, quarantine or
// cancellation.  Anything else (wrong bytes, an anonymous failure) is a
// violation.
func checkChaosResponse(violate func(invariant, format string, args ...any),
	p chaosProgram, out []int64, err error) {
	if err == nil {
		if !slices.Equal(out, p.want) {
			violate(ChaosCorrectness, "%s: output %v, want %v", p.name, out, p.want)
		}
		return
	}
	if !structuredError(err) {
		violate(ChaosCorrectness, "%s: unclassified error: %v", p.name, err)
	}
}

// structuredError reports whether the error is one of the typed failures the
// stack is allowed to answer with under fault injection.
func structuredError(err error) bool {
	var oe *OverloadError
	var pe *PanicError
	var qe *QuarantineError
	return faultinject.Injected(err) ||
		errors.As(err, &oe) || errors.As(err, &pe) || errors.As(err, &qe) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// firstOutput extracts the agreed output of a comparison (all reports agree
// whenever the comparison returned without error).
func firstOutput(reports []*sim.Report) []int64 {
	if len(reports) == 0 {
		return nil
	}
	return reports[0].Output
}

package service

import (
	"fmt"
	"runtime"
	"sync"

	"uhm/internal/faultinject"
	"uhm/internal/sim"
)

// poolKey identifies a class of interchangeable replayers: one predecoded
// program (which pins the artifact and the encoding degree), one strategy,
// one configuration fingerprint.  Any replayer under the key replays the
// same program at the same cost, byte for byte.
type poolKey struct {
	pp       *sim.PredecodedProgram
	strategy sim.Strategy
	fp       sim.Fingerprint
}

// PoolStats are the pool's observability counters.
type PoolStats struct {
	// Hits counts checkouts served by a warmed idle replayer; Misses counts
	// checkouts that had to construct one.
	Hits   int64
	Misses int64
	// Discards counts replayers dropped at check-in (idle bound reached, or
	// their program was invalidated while checked out).
	Discards int64
	// Invalidated counts idle replayers dropped because their artifact was
	// evicted from the registry.
	Invalidated int64
	// Idle and Leased describe current residency.
	Idle   int
	Leased int
}

// Pool keeps warmed sim.Replayers for reuse.  A Replayer owns its memory
// hierarchy, DTB/cache, host machine and report, all built by NewReplayer;
// checking one out and calling Replay therefore does no construction work at
// all — the steady-state replay loop is 0 allocs/op.  A miss builds a new
// replayer, which costs a few KiB: the hierarchy, DTB and cache it holds
// model capacity and references, not contents.  Replayers are not safe for
// concurrent use, which is exactly what the checkout discipline enforces: a
// leased replayer belongs to one request until released.
//
// All Pool methods are safe for concurrent use.
type Pool struct {
	maxIdlePerKey int
	// maxIdleTotal bounds idle replayers across every key.  Keys embed the
	// client-controlled config fingerprint, so without a global bound a
	// client iterating distinct configurations (max_instructions = 1, 2,
	// 3, ...) would park one warm replayer per value forever.
	maxIdleTotal int

	mu    sync.Mutex
	clock int64 // recency stamps for idle eviction
	idle  map[poolKey][]idleEntry
	// leased counts checked-out replayers per program; dead marks programs
	// invalidated while some of their replayers were checked out, so late
	// check-ins are discarded instead of repopulating a retired key.  Both
	// maps are pruned when the last lease of a program returns, so neither
	// grows beyond the set of live programs.
	leased map[*sim.PredecodedProgram]int
	dead   map[*sim.PredecodedProgram]bool
	stats  PoolStats
}

// idleEntry is one parked replayer with the stamp of its check-in, so the
// global idle bound can evict the stalest entry rather than refuse new ones.
type idleEntry struct {
	r     *sim.Replayer
	stamp int64
}

// NewPool returns a pool keeping at most maxIdlePerKey idle replayers per
// (program, strategy, config) class; zero or negative selects
// runtime.GOMAXPROCS(0), matching the bound on concurrent requests.
func NewPool(maxIdlePerKey int) *Pool {
	if maxIdlePerKey <= 0 {
		maxIdlePerKey = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		maxIdlePerKey: maxIdlePerKey,
		maxIdleTotal:  16 * maxIdlePerKey,
		idle:          make(map[poolKey][]idleEntry),
		leased:        make(map[*sim.PredecodedProgram]int),
		dead:          make(map[*sim.PredecodedProgram]bool),
	}
}

// Lease is a checked-out replayer.  The caller owns R until Release; a
// report R returns is owned by the replayer, read-only, and must be cloned
// (sim.Report.Clone) before Release if it outlives the lease.
type Lease struct {
	R *sim.Replayer

	pool     *Pool
	key      poolKey
	released bool
}

// Acquire checks out a warmed replayer for the program under the strategy
// and configuration, constructing one only when no idle replayer of the
// exact class exists.
func (p *Pool) Acquire(pp *sim.PredecodedProgram, strategy sim.Strategy, cfg sim.Config) (*Lease, error) {
	if ferr := faultinject.Fire(faultinject.SitePoolAcquire); ferr != nil {
		return nil, fmt.Errorf("service: replayer checkout: %w", ferr)
	}
	key := poolKey{pp: pp, strategy: strategy, fp: cfg.Fingerprint()}
	p.mu.Lock()
	if rs := p.idle[key]; len(rs) > 0 {
		r := rs[len(rs)-1].r
		rs[len(rs)-1] = idleEntry{}
		if len(rs) == 1 {
			delete(p.idle, key)
		} else {
			p.idle[key] = rs[:len(rs)-1]
		}
		p.stats.Hits++
		p.stats.Idle--
		p.stats.Leased++
		p.leased[pp]++
		p.mu.Unlock()
		return &Lease{R: r, pool: p, key: key}, nil
	}
	p.stats.Misses++
	p.mu.Unlock()

	r, err := sim.NewReplayer(pp, strategy, cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.stats.Leased++
	p.leased[pp]++
	p.mu.Unlock()
	return &Lease{R: r, pool: p, key: key}, nil
}

// Release returns the replayer to the pool.  Replayers of invalidated
// programs, and check-ins beyond the per-key idle bound, are discarded.
// Release is idempotent.
func (l *Lease) Release() { l.checkin(false) }

// Discard ends the lease without repooling the replayer.  The service uses
// it when the artifact behind the program is no longer live in the registry:
// the dead-marking in Invalidate only covers programs with outstanding
// leases at invalidation time, so a lease taken on a stale artifact *after*
// its eviction must be kept out of the idle lists here — repooled, it would
// sit under a retired key forever (an evicted artifact rebuilds to a fresh
// program instance, so no future Acquire or Invalidate ever matches it).
// Discard is idempotent with Release.
func (l *Lease) Discard() { l.checkin(true) }

func (l *Lease) checkin(discard bool) {
	if l.released {
		return
	}
	l.released = true
	// A check-in fault forces the discard path: the replayer is dropped
	// instead of repooled, which must only cost a rebuild on the next
	// checkout, never unbalance the lease accounting.
	if !discard && faultinject.Fire(faultinject.SitePoolCheckin) != nil {
		discard = true
	}
	p := l.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	pp := l.key.pp
	p.stats.Leased--
	if p.leased[pp]--; p.leased[pp] <= 0 {
		delete(p.leased, pp)
	}
	if p.dead[pp] {
		p.stats.Discards++
		if p.leased[pp] == 0 {
			delete(p.dead, pp)
		}
		return
	}
	if discard || len(p.idle[l.key]) >= p.maxIdlePerKey {
		p.stats.Discards++
		return
	}
	// At the global bound, evict the stalest idle entry rather than refuse
	// the fresh one: a client sweeping distinct config fingerprints would
	// otherwise pin the pool full of never-reacquired replayers and every
	// hot key's check-in would be discarded for the process lifetime.
	if p.stats.Idle >= p.maxIdleTotal {
		p.evictStalestLocked()
	}
	p.clock++
	p.idle[l.key] = append(p.idle[l.key], idleEntry{r: l.R, stamp: p.clock})
	p.stats.Idle++
}

// evictStalestLocked drops the least recently checked-in idle replayer.
// Each per-key slice is stacked in check-in order, so its oldest entry is
// index 0; the scan is O(keys) and runs only when the global bound is hit.
func (p *Pool) evictStalestLocked() {
	var victim poolKey
	var found bool
	var oldest int64
	for key, rs := range p.idle {
		if s := rs[0].stamp; !found || s < oldest {
			victim, oldest, found = key, s, true
		}
	}
	if !found {
		return
	}
	rs := p.idle[victim]
	if len(rs) == 1 {
		delete(p.idle, victim)
	} else {
		p.idle[victim] = append(rs[:0:0], rs[1:]...)
	}
	p.stats.Idle--
	p.stats.Discards++
}

// Invalidate drops every idle replayer built on the program and marks it so
// that still-checked-out replayers are discarded on release.  The registry's
// eviction callback feeds this.
func (p *Pool) Invalidate(pp *sim.PredecodedProgram) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, rs := range p.idle {
		if key.pp != pp {
			continue
		}
		p.stats.Invalidated += int64(len(rs))
		p.stats.Idle -= len(rs)
		delete(p.idle, key)
	}
	if p.leased[pp] > 0 {
		p.dead[pp] = true
	}
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// VerifyAccounting cross-checks the pool's books: the Idle counter must equal
// the replayers actually parked, the Leased counter must equal the per-program
// lease counts, and dead marks may exist only for programs with outstanding
// leases.  The chaos harness calls it after every drained fault plan, when
// Leased must additionally be zero — a nonzero residue there is a leaked or
// double-returned replayer.
func (p *Pool) VerifyAccounting() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := 0
	for key, rs := range p.idle {
		if len(rs) == 0 {
			return fmt.Errorf("pool: empty idle list left under key %v", key)
		}
		idle += len(rs)
	}
	if idle != p.stats.Idle {
		return fmt.Errorf("pool: Idle counter %d, %d replayers actually parked", p.stats.Idle, idle)
	}
	var leased int64
	for pp, n := range p.leased {
		if n <= 0 {
			return fmt.Errorf("pool: non-positive lease count %d retained for %p", n, pp)
		}
		leased += int64(n)
	}
	if leased != int64(p.stats.Leased) {
		return fmt.Errorf("pool: Leased counter %d, per-program counts sum to %d", p.stats.Leased, leased)
	}
	for pp := range p.dead {
		if p.leased[pp] == 0 {
			return fmt.Errorf("pool: dead mark retained for %p with no outstanding lease", pp)
		}
	}
	return nil
}

package service

import (
	"fmt"
	"sync/atomic"

	"uhm/internal/faultinject"
	"uhm/internal/sim"
)

// PoolStats are the pool's observability counters.
type PoolStats struct {
	// Hits counts checkouts served by a replayer parked on the program;
	// Misses counts checkouts that had to construct one.
	Hits   int64
	Misses int64
	// Discards counts replayers dropped instead of parked (Lease.Discard, or
	// a check-in fault), and the oldest replayers a program dropped at its
	// parking bound.
	Discards int64
	// Leased counts the replayers checked out now.
	Leased int
}

// Pool checks warmed sim.Replayers out of the programs they are parked on
// and back in.  A Replayer owns its memory hierarchy, DTB/cache, host
// machine and report, all built by NewReplayer; checking one out and calling
// Replay therefore does no construction work at all — the steady-state
// replay loop is 0 allocs/op.  A miss builds a new replayer, which costs a
// few KiB: the hierarchy, DTB and cache it holds model capacity and
// references, not contents.  Replayers are not safe for concurrent use,
// which is exactly what the checkout discipline enforces: a leased replayer
// belongs to one request until released.
//
// The pool keeps no replayer itself.  A released replayer is parked on its
// sim.PredecodedProgram, which charges it in the artifact's footprint, so
// the registry's byte budget governs parked replayers with everything else
// the program holds, and evicting the artifact retires them with it.
//
// All Pool methods are safe for concurrent use.
type Pool struct {
	// maxParked bounds the replayers parked on one program: workers ×
	// len(sim.Strategies()).  At most workers replayers of one (strategy,
	// config) class are out at once, since a request holds one slot and
	// uses one replayer at a time, so the bound only limits how many
	// distinct classes a program keeps; a client sweeping configurations
	// drops the oldest.
	maxParked int

	hits, misses, discards, leased atomic.Int64
}

// NewPool returns a pool for a service serving at most workers requests at
// once.
func NewPool(workers int) *Pool {
	return &Pool{maxParked: workers * len(sim.Strategies())}
}

// Lease is a checked-out replayer.  The caller owns R until Release; a
// report R returns is owned by the replayer, read-only, and must be cloned
// (sim.Report.Clone) before Release if it outlives the lease.
type Lease struct {
	R *sim.Replayer

	pool     *Pool
	pp       *sim.PredecodedProgram
	released bool
}

// Acquire checks out a warmed replayer for the program under the strategy
// and configuration: one parked on the program, or a new one when none of
// the class is parked.
func (p *Pool) Acquire(pp *sim.PredecodedProgram, strategy sim.Strategy, cfg sim.Config) (*Lease, error) {
	if ferr := faultinject.Fire(faultinject.SitePoolAcquire); ferr != nil {
		return nil, fmt.Errorf("service: replayer checkout: %w", ferr)
	}
	r := pp.Unpark(strategy, cfg)
	if r != nil {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
		var err error
		if r, err = sim.NewReplayer(pp, strategy, cfg); err != nil {
			return nil, err
		}
	}
	p.leased.Add(1)
	return &Lease{R: r, pool: p, pp: pp}, nil
}

// Release parks the replayer on its program for the next checkout of its
// class.  Release is idempotent.
func (l *Lease) Release() { l.checkin(false) }

// Discard ends the lease without parking the replayer.  The service defers
// it on every run, so a run that panics still ends its lease.  Discard is
// idempotent with Release.
func (l *Lease) Discard() { l.checkin(true) }

func (l *Lease) checkin(discard bool) {
	if l.released {
		return
	}
	l.released = true
	l.pool.leased.Add(-1)
	// A check-in fault forces the discard path: the replayer is dropped
	// instead of parked, which must only cost a rebuild on the next
	// checkout, never unbalance the lease accounting.
	if discard || faultinject.Fire(faultinject.SitePoolCheckin) != nil || l.pp.Park(l.R, l.pool.maxParked) {
		l.pool.discards.Add(1)
	}
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Discards: p.discards.Load(),
		Leased:   int(p.leased.Load()),
	}
}

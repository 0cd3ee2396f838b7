package service

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"uhm/internal/core"
	"uhm/internal/faultinject"
	"uhm/internal/store"
	"uhm/internal/workload"
)

// Key identifies an artifact by content, not by name: the SHA-256 of its
// MiniLang source text plus the semantic level it is compiled at.  Two
// requests that submit byte-identical programs share one artifact regardless
// of what they call it.
type Key struct {
	Hash  [sha256.Size]byte
	Level core.Level
}

// KeyOf computes the content address of a source program at a level.
func KeyOf(src string, level core.Level) Key {
	return Key{Hash: sha256.Sum256([]byte(src)), Level: level}
}

// String renders the key short enough for logs and stats.
func (k Key) String() string { return fmt.Sprintf("%x/%s", k.Hash[:6], k.Level) }

// RegistryStats are the registry's observability counters.
type RegistryStats struct {
	// Hits counts lookups served from the cache, including singleflight
	// waiters that blocked on an in-flight build instead of duplicating it.
	Hits int64
	// Misses counts lookups not resident in memory (served from the disk
	// tier or built).
	Misses int64
	// Builds counts compile-pipeline builds started; it is the "artifact
	// rebuild work" counter a warmed cache must not increment.  A lookup
	// served by the disk tier counts a Miss but not a Build.
	Builds int64
	// BuildErrors counts builds that failed; failed builds are not cached.
	BuildErrors int64
	// Evictions counts artifacts dropped by the byte-budget LRU.
	Evictions int64
	// Quarantines counts programs marked as poison pills after a build or
	// run panicked on them; Quarantined is the current count of keys the
	// registry refuses to rebuild.
	Quarantines int64
	Quarantined int
	// Entries and Bytes describe the current residency; CapacityBytes is the
	// configured budget (0 = unbounded).
	Entries       int
	Bytes         int64
	CapacityBytes int64
	// WarmLoads counts artifacts preloaded from the disk tier by Warmstart.
	WarmLoads int64
	// Disk mirrors the disk tier's own counters; DiskEntries and DiskBytes
	// describe its current residency.  All zero when no store is attached.
	Disk        store.TierStats
	DiskEntries int
	DiskBytes   int64
}

// regEntry is one registry slot.  ready is closed when the build completes
// (the singleflight barrier); art/err must only be read after that.
type regEntry struct {
	key      Key
	art      *core.Artifact
	err      error
	ready    chan struct{}
	bytes    int64 // last accounted footprint
	lastUse  int64 // recency stamp from Registry.clock
	building bool
	// persisted is the PersistableForms count of the last container written
	// for this entry; persisting serializes concurrent write-through so two
	// Syncs cannot encode the same artifact at once.
	persisted  int
	persisting bool
}

// Registry is the content-addressed artifact cache.  All methods are safe
// for concurrent use.
type Registry struct {
	capacity int64
	// onEvict, if set, is called (outside the registry lock) with each
	// artifact dropped by the LRU; the service layer uses it to invalidate
	// pooled replayers built on the artifact's predecoded programs.
	onEvict func(*core.Artifact)
	// disk, if set, is the second tier: misses read through it before
	// building, successful builds write through to it, and a recorded trace
	// re-persists on Sync.  Disk failures never surface to requests — a bad
	// read or a corrupt container degrades to a clean rebuild, a failed write
	// leaves the memory tier serving — so the tier adds durability without
	// adding a failure mode.
	disk *store.Store

	mu      sync.Mutex
	entries map[Key]*regEntry
	byArt   map[*core.Artifact]*regEntry
	// quarantined holds poison-pill keys: programs whose build or run
	// panicked.  A quarantined key is never rebuilt, so one bad program
	// cannot repeatedly kill workers.
	quarantined map[Key]bool
	clock       int64
	bytes       int64
	stats       RegistryStats
}

// NewRegistry returns a registry with the given byte budget (0 = unbounded).
func NewRegistry(capacityBytes int64) *Registry {
	return &Registry{
		capacity:    capacityBytes,
		entries:     make(map[Key]*regEntry),
		byArt:       make(map[*core.Artifact]*regEntry),
		quarantined: make(map[Key]bool),
	}
}

// SetOnEvict installs the eviction callback.  It must be set before the
// registry is shared between goroutines.
func (r *Registry) SetOnEvict(fn func(*core.Artifact)) { r.onEvict = fn }

// SetStore attaches the disk tier.  It must be set before the registry is
// shared between goroutines.
func (r *Registry) SetStore(st *store.Store) { r.disk = st }

// Source returns the artifact for the given source text at the given level,
// building it exactly once per content address: concurrent callers with the
// same program block on one build.  name labels the artifact on first build
// only (content addressing means later callers may arrive with a different
// name for the same program).
func (r *Registry) Source(name, src string, level core.Level) (*core.Artifact, error) {
	key := KeyOf(src, level)

	r.mu.Lock()
	if r.quarantined[key] {
		r.mu.Unlock()
		return nil, &QuarantineError{Key: key}
	}
	if e, ok := r.entries[key]; ok {
		e.lastUse = r.tick()
		r.stats.Hits++
		r.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		return e.art, nil
	}
	e := &regEntry{key: key, ready: make(chan struct{}), building: true, lastUse: r.tick()}
	r.entries[key] = e
	r.stats.Misses++
	r.mu.Unlock()

	art, built, err := r.provide(key, name, src, level)

	r.mu.Lock()
	e.art, e.err = art, err
	e.building = false
	if built {
		r.stats.Builds++
	}
	e.persisted = 0
	if !built && err == nil {
		// A disk-served artifact is already persisted in its loaded form;
		// write-through would only rewrite identical bytes until its trace is
		// recorded.
		e.persisted = art.PersistableForms()
	}
	var evicted []*core.Artifact
	if err != nil {
		// Failed builds are reported to every waiter but not cached: the
		// failure may be transient only in the sense that the caller fixes
		// the program, and a fixed program has a different content address
		// anyway — but holding error entries would let garbage requests
		// squat on the budget.  A build that *panicked* is worse than
		// failed — the program is a poison pill, quarantined so it can
		// never be resubmitted to kill another worker.
		r.stats.BuildErrors++
		delete(r.entries, key)
		var pe *PanicError
		if errors.As(err, &pe) && !r.quarantined[key] {
			r.quarantined[key] = true
			r.stats.Quarantines++
			// A poison pill must not survive on disk to wedge a warm start.
			if r.disk != nil {
				defer r.disk.Delete(key.Hash, key.Level)
			}
		}
	} else {
		r.byArt[art] = e
		e.bytes = int64(art.FootprintBytes())
		r.bytes += e.bytes
		evicted = r.evictLocked(e)
	}
	r.mu.Unlock()
	close(e.ready)
	r.notifyEvicted(evicted)
	if err != nil {
		return nil, err
	}
	if built {
		// Write-through: persist the freshly built artifact after the waiters
		// are released, so the disk write is off every singleflight path.
		r.maybePersist(e)
	}
	return art, nil
}

// provide fills a registry miss: read through the disk tier when one is
// attached, fall back to the compile pipeline.  built reports whether the
// pipeline ran (the disk path costs no build work).  Any disk failure —
// missing, unreadable, corrupt, or failing rehydration — degrades to a clean
// rebuild; a container that failed verification is deleted so the
// write-through below replaces it.
func (r *Registry) provide(key Key, name, src string, level core.Level) (art *core.Artifact, built bool, err error) {
	if r.disk != nil {
		if img, gerr := r.disk.Get(key.Hash, key.Level); gerr == nil {
			if art, rerr := img.Artifact(); rerr == nil {
				return art, false, nil
			}
			// The container verified but would not rehydrate — a writer bug
			// or format drift.  Drop it and rebuild.
			r.disk.Delete(key.Hash, key.Level)
		} else if !errors.Is(gerr, store.ErrNotFound) {
			r.disk.Delete(key.Hash, key.Level)
		}
	}
	art, err = build(name, src, level)
	return art, true, err
}

// maybePersist writes the entry's artifact through to the disk tier when its
// persistable forms have grown past what the last container captured.  The
// persisting flag serializes writers per entry; the forms count is captured
// before the snapshot, so a trace recorded concurrently at worst triggers one
// more write.  The forms are the DIR and the trace, so an entry's container
// is written at most twice: at build and when the trace is first recorded.
// Put failures are counted in the tier stats and otherwise ignored: the
// memory tier keeps serving.
func (r *Registry) maybePersist(e *regEntry) {
	if r.disk == nil {
		return
	}
	r.mu.Lock()
	if e.building || e.err != nil || e.persisting || r.quarantined[e.key] {
		r.mu.Unlock()
		return
	}
	forms := e.art.PersistableForms()
	if forms <= e.persisted {
		r.mu.Unlock()
		return
	}
	e.persisting = true
	art := e.art
	r.mu.Unlock()

	err := r.disk.Put(art.Snapshot(), art.Source)

	r.mu.Lock()
	e.persisting = false
	if err == nil && forms > e.persisted {
		e.persisted = forms
	}
	r.mu.Unlock()
}

// Warmstart preloads the hottest max artifacts (max < 0 = all) from the disk
// tier into memory, stopping early when the byte budget fills.  Quarantined
// keys and already-resident entries are skipped; containers that fail to
// verify or rehydrate are deleted.  It returns how many artifacts were
// loaded.  Call it before serving traffic — a restarted process then answers
// its previous working set with zero rebuilds.
func (r *Registry) Warmstart(max int) (int, error) {
	if r.disk == nil || max == 0 {
		return 0, nil
	}
	list, err := r.disk.List()
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, se := range list {
		if max >= 0 && loaded >= max {
			break
		}
		key := Key{Hash: se.Hash, Level: se.Level}
		r.mu.Lock()
		_, resident := r.entries[key]
		quarantined := r.quarantined[key]
		full := r.capacity > 0 && r.bytes >= r.capacity
		r.mu.Unlock()
		if full {
			break
		}
		if resident || quarantined {
			continue
		}
		img, gerr := r.disk.Get(se.Hash, se.Level)
		if gerr != nil {
			if !errors.Is(gerr, store.ErrNotFound) {
				r.disk.Delete(se.Hash, se.Level)
			}
			continue
		}
		art, rerr := img.Artifact()
		if rerr != nil {
			r.disk.Delete(se.Hash, se.Level)
			continue
		}
		ready := make(chan struct{})
		close(ready)
		e := &regEntry{key: key, art: art, ready: ready, persisted: art.PersistableForms(),
			bytes: int64(art.FootprintBytes())}
		r.mu.Lock()
		if _, ok := r.entries[key]; ok {
			r.mu.Unlock()
			continue
		}
		e.lastUse = r.tick()
		r.entries[key] = e
		r.byArt[art] = e
		r.bytes += e.bytes
		r.stats.WarmLoads++
		evicted := r.evictLocked(e)
		r.mu.Unlock()
		r.notifyEvicted(evicted)
		loaded++
	}
	return loaded, nil
}

// build runs the compile pipeline with the build fault site armed and panic
// isolation on: a panicking compiler — or an injected crash — surfaces as a
// *PanicError to every singleflight waiter instead of wedging the entry with
// its ready channel never closed (which would hang every waiter and make
// graceful drain impossible).
func build(name, src string, level core.Level) (art *core.Artifact, err error) {
	defer func() {
		if v := recover(); v != nil {
			art, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if ferr := faultinject.Fire(faultinject.SiteRegistryBuild); ferr != nil {
		return nil, fmt.Errorf("service: build %s: %w", name, ferr)
	}
	return core.BuildSource(name, src, level)
}

// Workload resolves a built-in workload's source and caches it like any
// submitted program: the CLI experiment sweeps and the server share these
// entries.
func (r *Registry) Workload(name string, level core.Level) (*core.Artifact, error) {
	src, err := workload.Source(name)
	if err != nil {
		return nil, err
	}
	return r.Source(name, src, level)
}

// Sync re-reads the artifact's footprint — which grows as predecoded and
// compiled forms materialise — refreshes its recency, and enforces the byte
// budget.  The service layer calls it after every run.  Unknown artifacts
// (evicted, or never registered) are ignored.
func (r *Registry) Sync(art *core.Artifact) {
	// The chaos evict site fires here, outside the lock: an injected fault
	// force-evicts the LRU artifact even under budget, so eviction and pool
	// invalidation are exercised without byte pressure.
	forceEvict := faultinject.Fire(faultinject.SiteRegistryEvict) != nil

	r.mu.Lock()
	e, ok := r.byArt[art]
	if !ok {
		r.mu.Unlock()
		return
	}
	nb := int64(art.FootprintBytes())
	r.bytes += nb - e.bytes
	e.bytes = nb
	e.lastUse = r.tick()
	evicted := r.evictLocked(e)
	if forceEvict {
		if victim := r.victimLocked(nil); victim != nil {
			r.dropLocked(victim)
			evicted = append(evicted, victim.art)
		}
	}
	r.mu.Unlock()
	r.notifyEvicted(evicted)
	// Trace write-through: a freshly recorded trace is the one form built
	// after the DIR that is worth carrying across a restart.
	r.maybePersist(e)
}

// SyncAll re-reads every resident artifact's footprint and enforces the
// byte budget.  Experiment sweeps grow artifacts outside the per-request
// Sync path (the engine's Build hook returns the artifact, then predecodes
// it at several degrees during the grid); calling SyncAll after a sweep
// keeps the LRU accounting honest under experiment-heavy traffic.
func (r *Registry) SyncAll() {
	r.mu.Lock()
	for _, e := range r.entries {
		if e.building || e.err != nil {
			continue
		}
		nb := int64(e.art.FootprintBytes())
		r.bytes += nb - e.bytes
		e.bytes = nb
	}
	evicted := r.evictLocked(nil)
	r.mu.Unlock()
	r.notifyEvicted(evicted)
}

// Live reports whether the artifact is currently resident in the registry.
// The service uses it at replayer check-in: a replayer warmed on an evicted
// artifact's program must be discarded, not repooled, or it would sit under
// a retired key (evicted artifacts rebuild to a fresh instance) holding the
// whole structure chain alive for the process lifetime.
func (r *Registry) Live(art *core.Artifact) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.byArt[art]
	return ok
}

// Stats returns a snapshot of the counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Entries = len(r.entries)
	s.Bytes = r.bytes
	s.CapacityBytes = r.capacity
	s.Quarantined = len(r.quarantined)
	if r.disk != nil {
		s.Disk = r.disk.Stats()
		s.DiskEntries, s.DiskBytes = r.disk.Usage()
	}
	return s
}

func (r *Registry) tick() int64 {
	r.clock++
	return r.clock
}

// evictLocked drops least-recently-used completed entries until the budget
// is met, never dropping in-flight builds or the entry just touched (keep).
// A single over-budget artifact is retained rather than thrashing: the cache
// must always be able to serve the request that filled it.  Callers invoke
// notifyEvicted on the returned artifacts after releasing the lock.
func (r *Registry) evictLocked(keep *regEntry) []*core.Artifact {
	if r.capacity <= 0 {
		return nil
	}
	var evicted []*core.Artifact
	for r.bytes > r.capacity {
		victim := r.victimLocked(keep)
		if victim == nil {
			break
		}
		r.dropLocked(victim)
		evicted = append(evicted, victim.art)
	}
	return evicted
}

// victimLocked picks the least-recently-used completed entry, never keep or
// an in-flight build; nil when no entry is evictable.
func (r *Registry) victimLocked(keep *regEntry) *regEntry {
	var victim *regEntry
	for _, e := range r.entries {
		if e == keep || e.building {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	return victim
}

// dropLocked removes a completed entry and its byte accounting.  The caller
// must invoke notifyEvicted on the entry's artifact after unlocking.
func (r *Registry) dropLocked(e *regEntry) {
	delete(r.entries, e.key)
	delete(r.byArt, e.art)
	r.bytes -= e.bytes
	r.stats.Evictions++
}

// Quarantine marks a key as a poison pill — the registry will never rebuild
// it — and evicts its resident artifact so pooled replayers warmed on it are
// retired through the usual eviction callback.  It reports whether the key
// was newly quarantined.
func (r *Registry) Quarantine(key Key) bool {
	r.mu.Lock()
	if r.quarantined[key] {
		r.mu.Unlock()
		return false
	}
	r.quarantined[key] = true
	r.stats.Quarantines++
	var evicted []*core.Artifact
	if e, ok := r.entries[key]; ok && !e.building {
		r.dropLocked(e)
		evicted = append(evicted, e.art)
	}
	r.mu.Unlock()
	r.notifyEvicted(evicted)
	if r.disk != nil {
		// The container must go too: a warm start that reloaded a poison pill
		// would hand the next process a primed crash.
		r.disk.Delete(key.Hash, key.Level)
	}
	return true
}

// QuarantineArtifact quarantines the key of a resident artifact — the form
// the service's run-panic recovery uses, where only the artifact is in hand.
// An artifact no longer resident cannot be mapped to its key and is left
// alone: if it is requested and crashes again, it will be resident then.
func (r *Registry) QuarantineArtifact(art *core.Artifact) bool {
	r.mu.Lock()
	e, ok := r.byArt[art]
	r.mu.Unlock()
	if !ok {
		return false
	}
	return r.Quarantine(e.key)
}

// VerifyAccounting cross-checks the registry's books: the byte total must
// equal the sum of per-entry accounts, the key and artifact indexes must
// mirror each other, and no quarantined key may be resident.  The chaos
// harness calls it after every drained fault plan; any inconsistency is an
// invariant violation, not a recoverable condition.
func (r *Registry) VerifyAccounting() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	built := 0
	for key, e := range r.entries {
		if e.building {
			continue
		}
		sum += e.bytes
		built++
		if e.err == nil {
			if got, ok := r.byArt[e.art]; !ok || got != e {
				return fmt.Errorf("registry: entry %s not mirrored in the artifact index", key)
			}
		}
		if r.quarantined[key] {
			return fmt.Errorf("registry: quarantined key %s is still resident", key)
		}
	}
	if sum != r.bytes {
		return fmt.Errorf("registry: accounted %d bytes, entries sum to %d", r.bytes, sum)
	}
	if built != len(r.byArt) {
		return fmt.Errorf("registry: %d completed entries but %d artifact-index entries", built, len(r.byArt))
	}
	if r.bytes < 0 {
		return fmt.Errorf("registry: negative byte account %d", r.bytes)
	}
	return nil
}

func (r *Registry) notifyEvicted(arts []*core.Artifact) {
	if r.onEvict == nil {
		return
	}
	for _, a := range arts {
		r.onEvict(a)
	}
}

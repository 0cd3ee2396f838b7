package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one injection point threaded through the stack.
type Site string

// The canonical injection sites.  Each is consulted exactly once per visit of
// the operation it names; the comment states what an injected fault means
// there.
const (
	// SiteRegistryBuild fails an artifact build in the registry, exactly as a
	// compile error would: every singleflight waiter sees the error and the
	// failed build is not cached.
	SiteRegistryBuild Site = "registry/build"
	// SiteRegistryEvict force-evicts the least-recently-used artifact during
	// a footprint sync, exercising eviction — and with it the retirement of
	// the replayers parked on the artifact — without byte-budget pressure.
	SiteRegistryEvict Site = "registry/evict"
	// SitePoolAcquire fails a replayer checkout, as a construction error
	// would.
	SitePoolAcquire Site = "pool/acquire"
	// SitePoolCheckin forces a returning replayer to be discarded instead of
	// parked on its program, exercising the discard accounting.
	SitePoolCheckin Site = "pool/checkin"
	// SiteTraceRecord fails the one-shot canonical trace recording; the
	// failure is cached with the program (an ErrNoTrace storm), so every
	// derivation on it declines and falls back to full replay.
	SiteTraceRecord Site = "trace/record"
	// SiteDerive declines one trace derivation with ErrNoTrace, forcing the
	// derive-vs-replay fallback for that request only.
	SiteDerive Site = "sim/derive"
	// SiteServiceRun fires inside the request hot path, after the replayer is
	// checked out — the natural home for panic-mode rules, which must not
	// leak the lease or the request slot.
	SiteServiceRun Site = "service/run"
	// SiteAdmission rejects a request at slot admission as if the queue
	// timeout had expired.
	SiteAdmission Site = "service/admission"
	// SiteDecode fails a uhmd request-body decode, as malformed JSON would.
	SiteDecode Site = "uhmd/decode"
	// SiteStoreWrite fails a disk-tier container write: write-through
	// persists nothing for that build, and the in-memory tier keeps serving
	// with books intact.
	SiteStoreWrite Site = "store/write"
	// SiteStoreRead fails a disk-tier container read, as an I/O error would:
	// the registry treats the entry as a disk miss and rebuilds from source.
	SiteStoreRead Site = "store/read"
	// SiteStoreVerify fails a disk-tier load's hash verification, as a
	// corrupt container would: the registry drops the entry and rebuilds
	// from source, and write-through replaces the bad file.
	SiteStoreVerify Site = "store/verify"
	// SiteRouterProxy fails one proxy attempt to a chosen backend, as a
	// connection refusal would: the router must eject the backend on the
	// spot and retry the request on the next ring owner (or the fallback),
	// never answering the client with a raw transport error.
	SiteRouterProxy Site = "router/proxy"
	// SiteRouterHealth fails one health probe, driving the eject/readmit
	// state machine without needing a backend to actually die.  A delay
	// rule here is a slow backend: the probe times out.
	SiteRouterHealth Site = "router/health"
	// SiteRouterFallback refuses the single-node local fallback, the last
	// rung of the routing ladder: the request must still answer as a
	// structured 503, not hang or leak.
	SiteRouterFallback Site = "router/fallback"
)

// Sites lists every canonical site, in a fixed order (RandomPlan draws from
// this list, so the order is part of seed reproducibility).
func Sites() []Site {
	return []Site{
		SiteRegistryBuild, SiteRegistryEvict,
		SitePoolAcquire, SitePoolCheckin,
		SiteTraceRecord, SiteDerive,
		SiteServiceRun, SiteAdmission, SiteDecode,
		// The disk-tier sites are appended, not interleaved, so plans drawn
		// for pre-existing seeds keep their rules for the original sites.
		SiteStoreWrite, SiteStoreRead, SiteStoreVerify,
		// The router sites are appended after the disk tier for the same
		// reason: RandomPlan draws per site in this order, so earlier sites'
		// rules are byte-identical for pre-existing seeds.
		SiteRouterProxy, SiteRouterHealth, SiteRouterFallback,
	}
}

// ErrInjected is the default error a firing rule returns.
var ErrInjected = errors.New("faultinject: injected fault")

// Injected reports whether err came from a firing rule (directly or wrapped).
func Injected(err error) bool { return errors.Is(err, ErrInjected) }

// InjectedPanic is the value a panic-mode rule panics with, so recovery paths
// can tell an injected crash from a real one in tests.
type InjectedPanic struct{ Site Site }

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s", p.Site)
}

// Mode selects what a firing rule does.
type Mode int

const (
	// ModeError returns Rule.Err (default ErrInjected) from Fire.
	ModeError Mode = iota
	// ModePanic panics with an InjectedPanic carrying the site.
	ModePanic
	// ModeDelay sleeps for Rule.Delay, then reports no fault — latency
	// injection for deadline and queue-timeout drills.
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Rule arms one site.  Each visit of the site first burns the After budget,
// then fires with the given probability until Count fires have happened.
type Rule struct {
	Site Site
	// Probability is the per-visit chance of firing once armed; values <= 0
	// or >= 1 fire on every armed visit.
	Probability float64
	// After skips the first N visits before arming (0 = armed immediately).
	After int
	// Count bounds the total fires (0 = unlimited).
	Count int
	// Mode selects error, panic or delay behaviour.
	Mode Mode
	// Err is returned by ModeError fires (nil selects ErrInjected).
	Err error
	// Delay is slept by ModeDelay fires.
	Delay time.Duration
	// Before, if set, runs when the rule fires, before the error, panic or
	// sleep — a test seam for holding a fault open (blocking on a channel)
	// until the test has arranged the state it wants the fault to land in.
	Before func()
}

// ruleState is a Rule plus its run-time counters and PRNG stream.  Each rule
// draws from its own stream, seeded from the plan seed and the site name, so
// concurrent visits to different sites do not perturb each other's sequences.
type ruleState struct {
	Rule
	rng    *rand.Rand
	visits int
	fires  int
}

// Plan is a reproducible set of armed rules.  All methods are safe for
// concurrent use; fire decisions across concurrently visited sites are
// independent (per-site PRNG streams), so a plan's behaviour is deterministic
// per site even though goroutine interleaving is not.
type Plan struct {
	seed  int64
	mu    sync.Mutex
	rules map[Site][]*ruleState
}

// NewPlan builds a plan from explicit rules, seeding each rule's PRNG stream
// from seed and its site name.
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{seed: seed, rules: make(map[Site][]*ruleState)}
	for _, r := range rules {
		h := fnv.New64a()
		h.Write([]byte(r.Site))
		fmt.Fprintf(h, "/%d", len(p.rules[r.Site]))
		p.rules[r.Site] = append(p.rules[r.Site], &ruleState{
			Rule: r,
			rng:  rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		})
	}
	return p
}

// Seed returns the plan's seed.
func (p *Plan) Seed() int64 { return p.seed }

// Rules returns the plan's rules in site order, for rendering and tests.
func (p *Plan) Rules() []Rule {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Rule
	for _, rs := range p.rules {
		for _, r := range rs {
			out = append(out, r.Rule)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Fires reports how many times each site has fired so far.
func (p *Plan) Fires() map[Site]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Site]int64)
	for site, rs := range p.rules {
		for _, r := range rs {
			out[site] += int64(r.fires)
		}
	}
	return out
}

// String renders the plan in ParseSpec syntax.
func (p *Plan) String() string {
	var s string
	for i, r := range p.Rules() {
		if i > 0 {
			s += ";"
		}
		s += fmt.Sprintf("%s:p=%g", r.Site, r.Probability)
		if r.After > 0 {
			s += fmt.Sprintf(",after=%d", r.After)
		}
		if r.Count > 0 {
			s += fmt.Sprintf(",count=%d", r.Count)
		}
		switch r.Mode {
		case ModePanic:
			s += ",mode=panic"
		case ModeDelay:
			s += fmt.Sprintf(",mode=delay,delay=%s", r.Delay)
		}
	}
	return s
}

// fire runs one visit of the site: it decides whether any rule fires and, if
// one does, acts on its mode — returning the rule's error, panicking, or
// sleeping.  The decision is made under the plan lock; the action (callback,
// sleep, panic) happens outside it, so a blocking Before cannot wedge every
// other site.
func (p *Plan) fire(site Site) error {
	p.mu.Lock()
	var fired *ruleState
	for _, r := range p.rules[site] {
		r.visits++
		if r.visits <= r.After {
			continue
		}
		if r.Count > 0 && r.fires >= r.Count {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 && r.rng.Float64() >= r.Probability {
			continue
		}
		r.fires++
		fired = r
		break
	}
	p.mu.Unlock()
	if fired == nil {
		return nil
	}
	if fired.Before != nil {
		fired.Before()
	}
	switch fired.Mode {
	case ModePanic:
		panic(InjectedPanic{Site: site})
	case ModeDelay:
		time.Sleep(fired.Delay)
		return nil
	}
	if fired.Err != nil {
		return fmt.Errorf("%w: %w", ErrInjected, fired.Err)
	}
	return fmt.Errorf("%w at %s", ErrInjected, site)
}

// active is the process-global plan the injection sites consult.
var active atomic.Pointer[Plan]

// Activate installs the plan globally and returns a function restoring the
// previous state.  Chaos runs activate one plan at a time; cmd/uhmd activates
// one for the process lifetime.
func Activate(p *Plan) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// Enabled reports whether any plan is active.
func Enabled() bool { return active.Load() != nil }

// Fire visits the site on the active plan.  With no active plan — the
// production steady state — it is a single atomic load and a nil return.
func Fire(site Site) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fire(site)
}

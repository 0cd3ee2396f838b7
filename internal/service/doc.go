// Package service is the concurrency-safe service layer over the pipeline:
// it lifts the paper's amortisation argument from "one process run" to "a
// long-running process serving many requests".  The binding work the paper
// buffers — fetch, decode, translate, and in this reproduction also parse,
// compile, predecode and closure-compile — is done once per distinct program
// and shared across every request that needs it.
//
// Three pieces compose:
//
//   - Registry: a content-addressed artifact cache keyed by
//     (sha256(source), level).  Concurrent requests for the same program are
//     collapsed into one build (singleflight); completed artifacts are kept
//     under a byte-accounted LRU budget, with hit/miss/eviction statistics.
//     With a store attached (internal/store) it is two-tiered: builds and
//     recorded traces write containers through to disk, memory misses read
//     through with verify-by-hash (corrupt containers degrade to clean
//     rebuilds), and Warmstart preloads the hottest containers at startup.
//   - Pool: checks warmed sim.Replayers out of the predecoded program they
//     are parked on, one class per (strategy, normalized config), and parks
//     them there again.  The program charges them in its footprint, so the
//     registry's budget governs them and evicting the artifact retires
//     them.  A checked-out replayer has its memory hierarchy, DTB/cache,
//     host machine and report already built, so steady-state request
//     handling inherits the 0 allocs/op replay loop.
//   - Service: the façade tying the two together with request-level
//     parallelism bounded like core.Engine, plus a registry-backed
//     core.Engine so the named experiments share the same artifact cache.
//
// Every run and compare takes one path.  A Request names the program (a
// built-in workload or submitted source), its level and its config;
// Resolve finds or builds its artifact; a Runner runs or compares it on
// warmed replayers.  Runners exist only inside Admit, which holds one
// request slot for however many requests its callback serves — a uhmd
// batch is one Admit, a single request a batch of one — and Run and
// Compare wrap Admit for one-shot callers.
//
// The layer is hardened against partial failure: admission waiting is
// bounded by a queue timeout (typed *OverloadError with a Retry-After
// hint), run-path panics are recovered at the service boundary (typed
// *PanicError) and quarantine the offending artifact as a poison pill
// (typed *QuarantineError on retry), failed builds are reported to every
// singleflight waiter without being cached, and a declined trace
// derivation falls back to an identical full replay (counted, never an
// error).  ChaosSweep replays seeded internal/faultinject plans against
// concurrent workloads and asserts the robustness invariants: no lease
// outstanding after the drain, and Registry.VerifyAccounting byte-exact.
//
// cmd/uhmd serves this layer over HTTP; cmd/uhmrun and cmd/uhmbench run the
// identical code path in-process, so the CLI and the server cannot drift.
package service

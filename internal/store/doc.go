// Package store is the persistence layer of the artifact pipeline: a
// versioned binary container format for built artifacts and a
// content-addressed disk tier behind the in-memory registry.
//
// The paper's argument is that binding work should be paid once and amortised
// across many executions.  The service registry amortises it across requests
// within one process; this package amortises it across processes and
// machines.  Like Rau's UHM, which keeps a compact static representation and
// rebuilds the dynamic one on demand, a container carries only what cannot be
// cheaply rebuilt: the source text, the compiled DIR program and the recorded
// canonical execution trace.  A loading process skips the DIR compiler and
// the trace-recording run; every encoded degree and the closure-compiled
// form are rebuilt from the DIR program on first use, exactly as a freshly
// built artifact builds them.
//
// The container is defended in depth: a fixed header (magic, version, payload
// length) gates format skew, a SHA-256 over the whole payload gates
// corruption, and the section parser bounds-checks every read, so a
// truncated, flipped or hostile file yields a typed error (ErrBadMagic,
// ErrVersion, ErrTruncated, ErrHashMismatch, ErrCorrupt) and never a partial
// artifact.  Store wraps a directory of containers with atomic
// temp-file+rename writes, verify-by-hash reads and per-tier counters; the
// service registry stacks it behind its byte-budget LRU as the second tier.
package store

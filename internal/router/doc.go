// Package router fans a uhmd-shaped HTTP API out over a fleet of uhmd
// backends.  Placement is content-addressed: each request's program key —
// the same (sha256(source), level) key the service registry builds under —
// is consistent-hashed onto a ring of virtual nodes, so byte-identical
// programs always land on the same backend and the fleet as a whole builds
// each distinct artifact exactly once.  Membership changes move only the
// keys owned by the backend that changed: ejecting one of N backends
// re-routes its own key share to ring successors and nothing else.
//
// Backends are health-checked (periodic /healthz probes; a transport
// failure during proxying ejects immediately, probes readmit with
// exponential backoff), capped per-backend in in-flight requests, and
// backed by an optional local fallback handler that serves single-node when
// every backend is down.  A batch envelope is walked once, placing each item
// by its program key; each owner's sub-batch is spliced from the items' own
// bytes and forwarded concurrently, and the answers' items are spliced back in
// request order.  The router re-encodes no payload, and batching and routing
// compose without giving up single-build placement.
//
// The router holds every request body and every backend response fully in
// memory (bodies are bounded), which is what makes its retries safe: a
// request that died with its backend is replayed byte-identical against the
// next ring owner, and the client never observes the failure.
package router

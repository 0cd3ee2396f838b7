// Command uhmperf is the end-to-end and per-layer benchmark of the UHM
// service.  It measures the two quantities Rau's universal host machine
// trades, time and memory, from the side of a user of uhmd, and breaks the
// time down by layer.  README.md and ARCHITECTURE.md do not cover it; this
// comment is its documentation.
//
// Run it from the repository root; run.sh builds it with its caches under
// .bench_build/ and passes the flags through:
//
//	bash cmd/uhmperf/run.sh -workload all -seed 42 -o out.json
//	bash cmd/uhmperf/run.sh -workload warm -seed 7 -trace 1
//
// uhmperf builds uhmd from ./cmd/uhmd and starts real uhmd processes for the
// served workloads, each with -workers 2, their output in
// .bench_build/uhmperf/run-<workload>/.  All load comes from this one
// process over at most two connections per server, the core count it was
// calibrated on, and runs on one P of Go's scheduler so that it leaves the
// cores to the servers.  The servers receive only generated program texts;
// the seed stays here.  -workload all runs each workload in a child process
// of its own, so memory and collector state do not carry over.
//
// Standard output is a table, the diagnostics of each run, and last one
// JSON line with exactly the keys correct, attempted, failed and metrics;
// -o writes the whole result, diagnostics included.  Every answer is
// checked, and a wrong one makes correct false and the exit status 1.
//
// # Inputs
//
// Programs come from the archetype generator (internal/workload/gen),
// drawn from the seed's own candidate stream and kept when their oracle step
// count lies in 2,000..8,000.  The generator's run lengths are heavy-tailed
// (kernel: median about 2,000 instructions, maximum over 400 seeds 1.26
// million), so without the band one long program sets p99.  The band is cut
// into four strata, 2,000-2,600, 2,600-3,400, 3,400-4,700 and 4,700-8,000
// steps, and the k-th program of each archetype comes from stratum k mod 4,
// so that every seed's set has the same mix of sizes: drawn freely from the
// band, the mean instruction count of a 16-program set varied by 10% from
// seed to seed, which showed as a 0.15 spread in warm's throughput; drawn by
// strata, it varies by 3.6%.  The served workloads cycle the archetypes
// kernel, kernel, recursion, phased, dispatch.  Request sequences are seeded
// and fixed before any request is sent: request i always names the same
// program, however fast the server answers.
//
// # Workloads
//
// warm: one uhmd and 16 programs, each requested twice during set-up, then a
// closed loop of /v1/run on two connections, programs drawn uniformly.  It is
// the paper's steady state, the whole working set in dynamic form: HTTP, the
// service's request path and DTB derivation do the work, builds none, and
// the run fails if Registry.Builds moves in the window.  Sixteen programs is
// what fits: the replayer pool keeps at most two idle replayers per program
// and 32 in all on a two-core machine.  With 32 programs, 4.7% of requests
// found no idle replayer and built one (8.5 MB, about 1.7 ms), which set p99.
//
// churn: one uhmd with -cache-bytes 8388608 and 1,024 programs drawn from
// rand.NewZipf(s=1.1) in a closed loop on two connections.  The working set
// is larger than the registry's budget, so about 40% of requests pay the
// whole binding (parse, compile, encode, predecode, trace, a new replayer)
// and an eviction: registry writes beside reads.  Set-up requests every
// program once, least requested first, so the window starts with the
// registry holding the most requested programs, as it would after a long
// run.
//
// fleet: uhmd -router over two uhmd backends serving 32 programs, warmed
// through the router, then an open loop of 80 /batch/run requests of 8 runs
// per second, about a third of what the fleet sustains.  Requests that find
// both connections busy wait in the generator, in order, and are never
// dropped; latency is timed from when a request was due, so a stall shows in
// the requests behind it, and the generator's lateness is reported.  It is
// the only workload that exercises placement, split and merge, and the
// router's buffering; it is open because front-end clients are independent.
// The run fails unless the fleet built each program exactly once.
//
// sweep: in process, no HTTP.  Two workers run core.CheckConformance, the
// full 3 levels x 4 encodings x 5 organisations cross-product against the
// hlr oracle, over 40 programs of each archetype in turn.  It is the
// researcher's path: replay, every encoder and the oracle do the work;
// derivation, HTTP and the registry do almost none.
//
// # End-to-end metrics
//
// Measured with tracing off over one window of -seconds; BENCHMARK.json
// fixes 20 s and each metric's regression bound, the share by which its
// median may worsen:
//
//	throughput_per_s  1/s  higher  0.25  runs answered and verified per
//	                                     second (sweep: programs checked)
//	p50_ms            ms   lower   0.25  median latency of a request: a
//	                                     /v1/run, a /batch/run of 8 timed
//	                                     from its due time (fleet), or one
//	                                     program's check (sweep)
//	tail_ms           ms   lower   0.25  p95 (warm), p99 (churn), p90 (fleet,
//	                                     sweep); each has at least ten
//	                                     samples beyond it at 20 s
//	setup_s           s    lower   0.25  median of five set-ups: launching
//	                                     the servers to the end of the warm
//	                                     pass (health, router membership, the
//	                                     first build of every program);
//	                                     sweep: generating its programs
//	rss_p95_mb        MiB  lower   0.20  p95 of resident memory sampled
//	                                     every 50 ms over the window, summed
//	                                     over the server processes (sweep:
//	                                     this process)
//
// The machine this was calibrated on is a virtual machine whose hypervisor
// at times gave a quarter of a run's CPU time to other guests, in bursts.
// The benchmark reads the machine's stolen time every quarter second during
// the window and computes throughput and latency only from the requests that
// ended in a quarter in which no more was stolen than in the median quarter,
// over the time those quarters cover; on a machine nobody steals from that
// is every request.  Over ten recorded runs this halved the spread of
// fleet's p95 and cut warm's p99 spread from 0.25 to 0.16.  Failures count
// over every request.  The host's speed also drifts by a fifth over minutes
// without stealing anything, which no filter sees: the bounds are the
// largest allowed, 0.25, wherever CALIBRATION.md records spreads near a
// tenth.  Resident memory is sampled rather than read from VmHWM because a
// sweep's peak is a collector-timing spike: VmHWM ranged 70-194 MiB over ten
// seeds while the sampled p95 stayed within 3%.
//
// The diagnostics give the sample count, the samples beyond the tail
// percentile, the highest percentile with ten beyond it, failures over
// attempts (transport errors, non-200 answers, failed items and wrong
// answers, which must be zero), the generator's lateness on fleet, the
// window's builds and pool misses, quiet_share, the part of the window the
// end-to-end metrics come from, and host_steal_share, the part of the
// machine's CPU time the hypervisor gave to others during the run.
// Answers are checked against the oracle's output and against
// core.RunSimulated of the same program, computed before the servers start:
// output, instructions, the four cycle fields, total cycles and DTB hit
// ratio.
//
// # Per-layer metrics
//
// -trace 1 runs the workload's load in quarters of the window, untraced,
// traced, traced, untraced, with a client span around each traced request;
// trace.overhead compares the two halves, and the quarters' order cancels
// drift across the window.  It then probes the layers one call at a time on
// the workload's own programs and request sequence, with nothing else
// running.  The probe replays 1,200 requests through a service.Service built
// like the servers, timing each step of the request path under a
// service.request span; sends 100 batches of 8 through the router and, split
// by the router's ring, straight to the owning backends, the two taking turns
// to go first, then item by item; replays and derives 8 programs under every
// organisation; and checks 4 programs with core.CheckConformance and again
// call by call.  Spans stay in memory and go to trace.json in the run
// directory at exit; a span's self time is its duration less the part its
// children cover, overlapping children counted once.  Each layer's metrics,
// and the end-to-end metric and workload each should move:
//
//	cmd/uhmd, HTTP: http.overhead_p50_us (a single /v1/run over HTTP less a
//	  registry-and-pool hit in process), backend.cpu_us_per_op,
//	  backend.gc_per_kop (gctrace lines) -> p50_ms and throughput_per_s on
//	  warm, tail_ms on warm and churn
//	internal/router: router.overhead_p50_us (a routed batch less the same
//	  batch sent to its owners directly), router.cpu_us_per_run,
//	  fleet.builds_delta (builds of the measured servers over set-up and
//	  window; fleet fails unless it is one per program, 32) -> p50_ms and
//	  tail_ms on fleet only
//	internal/service: service.request_p50_us, service.request_p99_us,
//	  registry.source_hit_us, registry.source_miss_us, registry.hit_ratio
//	  (base: 1,200 lookups), registry.evictions_per_krun, registry.bytes_mb,
//	  pool.acquire_hit_us, pool.acquire_miss_us, pool.hit_ratio (base: 1,200
//	  checkouts), pool.replayer_mb (heap per DTB replayer over 8),
//	  unbudgeted_mb (rss_p95_mb less registry bytes) -> p50_ms and tail_ms on
//	  warm, throughput_per_s on churn, rss_p95_mb on warm and churn
//	internal/dir, translate, psder, trace (the build chain):
//	  build.encode_predecode_us, build.closure_compile_us, trace.record_us
//	  (first calls; parse and compile is registry.source_miss_us) ->
//	  throughput_per_s and tail_ms on churn, setup_s; not warm's window
//	internal/sim, dtb, cache, memory: derive.<organisation>_ns_per_instr,
//	  replay.<organisation>_ns_per_instr, sim.dtb_hit_ratio and
//	  sim.cycles_per_instr (simulated, so they repeat exactly for a seed) ->
//	  derive.dtb moves p50_ms and tail_ms on warm and p50_ms on fleet; replay
//	  moves throughput_per_s on sweep only
//	internal/core, workload/gen, hlr: sweep.program_ms, gen.generate_us (per
//	  candidate), oracle.evaluate_us, sweep.encode_us,
//	  sweep.unattributed_share (a CheckConformance call's time outside its
//	  decomposed layer calls) -> throughput_per_s and p50_ms on sweep
//	harness: loadgen.cpu_share (must stay under 0.25), loadgen.lag_p99_ms
//	  (fleet; 0 in a closed loop), trace.overhead, trace.unattributed_share
//	  (service.request self time) -> nothing; they say whether the other
//	  numbers can be trusted
//
// # Comparing two commits
//
// Build each commit in its own checkout.  Run both with the same -seconds,
// at least ten pairs, alternating which commit runs first, each pair on a
// seed of its own, and report each side's median and quartiles per metric
// and workload.  Claim a gain only when the change wins at least nine of
// every ten pairs, ties counting for neither, and the medians differ by more
// than the distance between the parent's own quartiles; check it again on a
// seed not used while writing the change.  Claim no regression only when
// every end-to-end metric on every workload has a median within its bound
// of the parent's.  Per-layer metrics explain a change; they do not justify
// one.
package main

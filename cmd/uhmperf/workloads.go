package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"uhm/internal/core"
)

// spec is one workload.  doc.go records why each exists.
type spec struct {
	name string
	// programs is the size of the program set; for sweep, the seeds per
	// archetype.
	programs int
	sweep    bool
	// zipf draws requests from rand.NewZipf(s=1.1) instead of uniformly.
	zipf bool
	// cacheBytes is every uhmd's -cache-bytes.
	cacheBytes int64
	// backends > 0 puts a router in front of that many uhmd backends.
	backends int
	// warmPasses is how often set-up requests every program.
	warmPasses int
	// rate > 0 makes the window an open loop of that many requests per
	// second; otherwise it is a closed loop.
	rate float64
	// batch is the runs per request: 1 sends /v1/run, more /batch/run.
	batch int
	// tailQ is the percentile tail_ms reports; it has at least ten samples
	// beyond it at the window length BENCHMARK.json fixes.
	tailQ float64
}

// defaultCacheBytes is uhmd's own -cache-bytes default, passed explicitly so
// the in-process probe runs under the same budget as the servers.
const defaultCacheBytes = 256 << 20

// The tail percentiles are the highest that repeated from run to run on a
// shared two-core virtual machine whose hypervisor took several percent of
// its time: there warm's p99 spread 0.44 over ten seeds and fleet's p95
// 0.56.  In recorded runs one step lower spread less (warm: p95 0.13, p99
// 0.16; fleet: p90 0.08, p95 0.13).  Churn's p99 is the cost of a full build
// and repeated within 0.1.  CALIBRATION.md has the record.
var specs = []spec{
	{name: "warm", programs: 16, cacheBytes: defaultCacheBytes, warmPasses: 2, batch: 1, tailQ: 0.95},
	{name: "churn", programs: 1024, zipf: true, cacheBytes: 8 << 20, warmPasses: 1, batch: 1, tailQ: 0.99},
	{name: "fleet", programs: 32, cacheBytes: defaultCacheBytes, backends: 2, warmPasses: 2, rate: 80, batch: 8, tailQ: 0.90},
	{name: "sweep", programs: 40, sweep: true, tailQ: 0.90},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// conns bounds the benchmark's concurrency: connections per server for the
// served workloads, in-process workers for sweep.  It matches the two cores
// the benchmark was calibrated on.
const conns = 2

// setups is how many times an untraced run sets up; setup_s is the median.
const setups = 5

// env is what every workload run shares.
type env struct {
	ctx    context.Context
	seed   int64
	window time.Duration
	traced bool
	uhmd   string // server binary
	runDir string
	rec    *recorder // nil unless traced
	log    func(format string, args ...any)
}

// serverEnv is the servers' environment; traced runs count their
// collections through GODEBUG=gctrace=1.
func (e *env) serverEnv() []string {
	if e.traced {
		return append(os.Environ(), "GODEBUG=gctrace=1")
	}
	return os.Environ()
}

func (e *env) setups() int {
	if e.traced {
		return 1
	}
	return setups
}

func (sp spec) run(e *env) (*result, error) {
	if sp.sweep {
		return runSweep(e, sp)
	}
	return runServed(e, sp)
}

// sequence is the workload's seeded request sequence over n programs.
func (sp spec) sequence(seed int64, n int) []int32 {
	if sp.zipf {
		return zipfSequence(seed, n)
	}
	return uniformSequence(seed, n)
}

func runServed(e *env, sp spec) (*result, error) {
	res := newResult(sp.name, e)
	progs, genUS, err := servedPrograms(e.seed, sp.programs)
	if err != nil {
		return nil, err
	}
	e.log("%s: generated %d programs; simulating references", sp.name, len(progs))
	mism, err := simulate(progs, conns)
	if err != nil {
		return nil, err
	}
	res.violate(mism...)
	seq := sp.sequence(e.seed, len(progs))
	f, err := serve(e, sp, res, progs, seq)
	if err != nil {
		return nil, err
	}
	if !e.traced || sp.backends == 0 {
		// The probe starts its own fleet; a single server would only hold
		// memory meanwhile.
		f.stop()
		f = nil
	} else {
		defer f.stop()
	}
	if !e.traced {
		return res, nil
	}
	res.Metrics["gen.generate_us"] = median(genUS)
	return res, runProbe(e, res, progs, seq, sp.cacheBytes, f)
}

// serve sets the servers up e.setups() times, each time from scratch,
// measures the window on the last set-up and returns its servers, still
// running.
func serve(e *env, sp spec, res *result, progs []*program, seq []int32) (*fleet, error) {
	// The load generator needs a fraction of a core.  On one P it does not
	// compete with the servers' two workers for the scheduler; on two, warm
	// throughput was 8% lower and varied more between runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The warm pass asks for the programs in reverse, so that under churn's
	// budget the registry ends it holding the most requested ones.
	warmOrder := make([]int32, len(progs))
	for i := range warmOrder {
		warmOrder[i] = int32(len(progs) - 1 - i)
	}
	client := newClient(conns)
	defer client.CloseIdleConnections()
	singles, items := newVerifier(progs, false), newVerifier(progs, true)
	// opFor sends request i of seq to the fleet's front end.
	opFor := func(f *fleet, seq []int32) op {
		if sp.batch > 1 {
			return batchOp(client, f.front.url("/batch/run"), progs, seq, sp.batch, items)
		}
		return runOp(client, f.front.url("/v1/run"), progs, seq, singles)
	}

	var f *fleet
	var err error
	ok := false
	defer func() {
		if !ok && f != nil {
			f.stop()
		}
	}()
	var setupS []float64
	for range e.setups() {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		if f, err = launch(e.uhmd, e.runDir, e.serverEnv(), sp.cacheBytes, sp.backends); err != nil {
			return nil, err
		}
		warmReqs := int64((len(progs) + sp.batch - 1) / sp.batch)
		for range sp.warmPasses {
			res.count(countLoop(e.ctx, conns, warmReqs, opFor(f, warmOrder)))
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	e.log("%s: set up in %v s; measuring %s", sp.name, setupS, e.window)
	before, err := f.counters(client)
	if err != nil {
		return nil, err
	}
	cpu0, err := serverCPU(f)
	if err != nil {
		return nil, err
	}
	gc0 := gcLines(f.backends)
	stopRSS := sampleRSS(pids(f.servers()))
	all, untraced, overhead, err := e.measure(func(window time.Duration, rec *recorder) *loopStats {
		if sp.rate > 0 {
			return openLoop(e.ctx, conns, sp.rate, window, opFor(f, seq), rec)
		}
		return closedLoop(e.ctx, conns, window, opFor(f, seq), rec)
	})
	rss, rssErr := stopRSS()
	if err = cmp.Or(err, rssErr); err != nil {
		return nil, err
	}
	cpu1, err := serverCPU(f)
	if err != nil {
		return nil, err
	}
	gc1 := gcLines(f.backends)
	res.count(all)
	after, err := f.counters(client)
	if err != nil {
		return nil, err
	}
	buildsBefore, buildsAfter := before.Registry.Builds, after.Registry.Builds
	res.Diag["builds_before_window"], res.Diag["builds_after_window"] = buildsBefore, buildsAfter
	res.Diag["window_pool_misses"] = after.Pool.Misses - before.Pool.Misses
	res.Diag["window_registry_misses"] = after.Registry.Misses - before.Registry.Misses
	switch {
	case sp.name == "warm" && (buildsBefore != int64(len(progs)) || buildsAfter != buildsBefore):
		res.violate(fmt.Sprintf("warm: Registry.Builds %d after set-up and %d after the window, want %d both times",
			buildsBefore, buildsAfter, len(progs)))
	case sp.backends > 0 && buildsAfter != int64(len(progs)):
		res.violate(fmt.Sprintf("fleet: builds_delta %d, want %d (one build per program fleet-wide)",
			buildsAfter, len(progs)))
	}
	res.window(sp, untraced, rss)
	m := res.Metrics
	if e.traced {
		m["fleet.builds_delta"] = float64(buildsAfter)
		m["trace.overhead"] = overhead
		m["backend.cpu_us_per_op"] = ratio(float64(cpu1.backends-cpu0.backends)/1e3, float64(all.runs))
		m["backend.gc_per_kop"] = ratio(float64(gc1-gc0)*1e3, float64(all.runs))
		m["loadgen.cpu_share"] = ratio(float64(cpu1.self-cpu0.self), float64(cpu1.self-cpu0.self+cpu1.servers-cpu0.servers))
		m["unbudgeted_mb"] = m["rss_p95_mb"] - mib(after.Registry.Bytes)
	} else {
		m["setup_s"] = median(setupS)
		res.Diag["setup_s_each"] = setupS
	}
	ok = true
	return f, nil
}

// measure runs load over the window and returns everything it measured and
// the part the end-to-end metrics come from.  An untraced run keeps, for
// those metrics, the requests that ended while the hypervisor stole no more
// than its median from this machine (loopStats.quiet).  A traced run splits
// the window into quarters, untraced, traced, traced, untraced, so that
// drift across the window cancels out of overhead, the relative slowdown
// with spans on; untraced then holds the two untraced quarters.
func (e *env) measure(load func(window time.Duration, rec *recorder) *loopStats) (all, untraced *loopStats, overhead float64, err error) {
	if !e.traced {
		stop := sampleSteal()
		st := load(e.window, nil)
		samples, err := stop()
		if err != nil {
			return nil, nil, 0, err
		}
		return st, st.quiet(samples), 0, nil
	}
	all, untraced, traced := &loopStats{}, &loopStats{}, &loopStats{}
	for _, on := range []bool{false, true, true, false} {
		var rec *recorder
		if on {
			rec = e.rec
		}
		st := load(e.window/4, rec)
		all.merge(st)
		if on {
			traced.merge(st)
		} else {
			untraced.merge(st)
		}
	}
	return all, untraced, ratio(untraced.rate(), traced.rate()) - 1, nil
}

// cpuSample is cumulative CPU time of the benchmark and of its servers.
type cpuSample struct{ self, servers, backends time.Duration }

func serverCPU(f *fleet) (cpuSample, error) {
	var s cpuSample
	var err error
	if s.self, err = procCPU(0); err != nil {
		return s, err
	}
	if s.servers, err = cpuOf(pids(f.servers())); err != nil {
		return s, err
	}
	s.backends, err = cpuOf(pids(f.backends))
	return s, err
}

// gcLines counts the gctrace lines ("gc N @...") in the servers' logs.
func gcLines(ss []*uhmd) int {
	n := 0
	for _, s := range ss {
		data, err := os.ReadFile(s.logPath)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "gc ") {
				n++
			}
		}
	}
	return n
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// window fills the end-to-end metrics of one loop and of the resident
// memory sampled during it.
func (r *result) window(sp spec, st *loopStats, rss []float64) {
	r.Metrics["rss_p95_mb"] = newDist(rss).q(0.95)
	r.Diag["rss_samples"] = len(rss)
	lat := newDist(st.lat)
	r.Metrics["throughput_per_s"] = st.rate()
	r.Metrics["p50_ms"] = lat.q(0.5)
	r.Metrics["tail_ms"] = lat.q(sp.tailQ)
	r.Diag["tail_percentile"] = sp.tailQ * 100
	r.Diag["latency_samples"] = len(lat)
	r.Diag["tail_samples_beyond"] = beyond(len(lat), sp.tailQ)
	if q, ok := tailQuantile(len(lat)); ok {
		r.Diag["highest_supported_percentile"] = q * 100
		r.Diag["highest_supported_ms"] = lat.q(q)
	}
	if beyond(len(lat), sp.tailQ) < minBeyond {
		r.Diag["tail_warning"] = fmt.Sprintf("only %d samples beyond p%g", beyond(len(lat), sp.tailQ), sp.tailQ*100)
	}
	if len(st.lag) > 0 {
		lag := newDist(st.lag)
		r.Diag["loadgen_lag_p50_ms"] = lag.q(0.5)
		r.Diag["loadgen_lag_p99_ms"] = lag.q(0.99)
		r.Diag["loadgen_lag_max_ms"] = lag.q(1)
	}
	if r.Trace {
		// 0 in a closed loop, which sends each request when it is due.
		r.Metrics["loadgen.lag_p99_ms"] = newDist(st.lag).q(0.99)
	}
	r.Diag["window_requests"] = st.requests
	r.Diag["window_s"] = st.elapsed.Seconds()
	r.Diag["quiet_share"] = ratio(st.elapsed.Seconds(), r.Seconds)
}

func runSweep(e *env, sp spec) (*result, error) {
	res := newResult(sp.name, e)
	var progs []*program
	var genUS, setupS []float64
	for range e.setups() {
		start := time.Now()
		var err error
		if progs, genUS, err = sweepPrograms(e.seed, sp.programs); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	e.log("%s: generated %d programs in %v s; measuring %s", sp.name, len(progs), setupS, e.window)
	cfg := core.DefaultConfig()
	check := func(i int64, _ *bytes.Buffer) (int64, int64, error) {
		p := progs[i%int64(len(progs))]
		divs, err := core.CheckConformance(p.Name, p.Source, cfg)
		if err == nil && len(divs) > 0 {
			err = fmt.Errorf("%d divergences, first: %s", len(divs), divs[0])
		}
		if err != nil {
			return 1, 1, fmt.Errorf("%s: %w", p.Name, err)
		}
		return 1, 0, nil
	}
	cpu0, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stopRSS := sampleRSS([]int{os.Getpid()})
	all, untraced, overhead, err := e.measure(func(window time.Duration, rec *recorder) *loopStats {
		return closedLoop(e.ctx, conns, window, check, rec)
	})
	rss, rssErr := stopRSS()
	if err = cmp.Or(err, rssErr); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	cpu1, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	res.count(all)
	res.window(sp, untraced, rss)
	m := res.Metrics
	if !e.traced {
		m["setup_s"] = median(setupS)
		res.Diag["setup_s_each"] = setupS
		return res, nil
	}
	m["trace.overhead"] = overhead
	m["backend.cpu_us_per_op"] = ratio(float64(cpu1-cpu0)/1e3, float64(all.runs))
	m["backend.gc_per_kop"] = ratio(float64(ms1.NumGC-ms0.NumGC)*1e3, float64(all.runs))
	// In process the harness is the loop around the checks: its share is the
	// part of the workers' time spent outside them.
	m["loadgen.cpu_share"] = 1 - sum(all.lat)/(conns*ms(all.elapsed))
	m["unbudgeted_mb"] = m["rss_p95_mb"] // nothing in a sweep is under a byte budget
	m["fleet.builds_delta"] = 0          // a sweep builds outside any registry
	m["gen.generate_us"] = median(genUS)
	mism, err := simulate(progs, conns)
	if err != nil {
		return nil, err
	}
	res.violate(mism...)
	return res, runProbe(e, res, progs, uniformSequence(e.seed, len(progs)), defaultCacheBytes, nil)
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"uhm/internal/core"
	"uhm/internal/dir"
	"uhm/internal/router"
	"uhm/internal/service"
	"uhm/internal/sim"
	"uhm/internal/workload"
	"uhm/internal/workload/gen"
)

// The layer probe runs after a traced workload's windows, with nothing else
// running, and measures each layer once per call on the workload's own
// programs and request sequence: in process through the service's public
// functions, over HTTP straight to a backend, and through the router.  It
// is sequential, so its numbers are the layers' unloaded costs; what load
// adds shows in the end-to-end metrics.
const (
	// probeRequests is how many requests of the sequence the in-process
	// replay serves: enough that p99 has more than ten samples beyond it.
	probeRequests = 1200
	// probeBatches of batch size probeBatch go through the router, to the
	// owning backends directly, and one item at a time.
	probeBatches = 100
	probeBatch   = 8
	// probeSimPrograms programs are derived and replayed under every
	// organisation; probeConformancePrograms are checked and decomposed.
	probeSimPrograms         = 8
	probeConformancePrograms = 4
	// probeReplayers is how many replayers pool.replayer_mb averages over.
	probeReplayers = 8
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runProbe fills the per-layer metrics.  pf is the workload's own fleet when
// it has one; otherwise the probe starts a router and two backends.
func runProbe(e *env, res *result, progs []*program, seq []int32, cacheBytes int64, pf *fleet) error {
	e.log("%s: probing layers", res.Workload)
	m := res.Metrics
	hitReqUS, err := probeService(e.rec, res, progs, seq[:probeRequests], cacheBytes)
	if err != nil {
		return err
	}
	if err := probeSim(e.rec, res, progs, distinct(seq, probeSimPrograms)); err != nil {
		return err
	}
	if m["pool.replayer_mb"], err = replayerMB(progs[seq[0]]); err != nil {
		return err
	}
	if err := probeConformance(e.rec, res, progs, distinct(seq, probeConformancePrograms)); err != nil {
		return err
	}
	if pf == nil {
		probeDir := filepath.Join(e.runDir, "probe")
		if err := os.MkdirAll(probeDir, 0o755); err != nil {
			return err
		}
		if pf, err = launch(e.uhmd, probeDir, e.serverEnv(), cacheBytes, 2); err != nil {
			return err
		}
		defer pf.stop()
	}
	return probeHTTP(e, res, progs, seq[:probeBatches*probeBatch], pf, hitReqUS)
}

// distinct is the first n different programs of seq, in order.
func distinct(seq []int32, n int) []int {
	var out []int
	for _, p := range seq {
		if !slices.Contains(out, int(p)) {
			out = append(out, int(p))
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// probeService replays the requests through a service.Service built with
// the servers' options, calling the steps of its request path one by one, and
// returns the median time of a request that hit both the registry and the
// replayer pool.
func probeService(rec *recorder, res *result, progs []*program, seq []int32, cacheBytes int64) (hitReqUS float64, err error) {
	svc := service.New(service.Options{CapacityBytes: cacheBytes, Workers: conns})
	reg, pool := svc.Registry(), svc.Pool()
	cfg := core.DefaultConfig()
	var reqUS, hitReq, srcHit, srcMiss, acqHit, acqMiss, firstPre, firstComp, firstTrace []float64
	seen := make(map[*core.Artifact]bool)
	regBefore := reg.Stats()
	for i, p := range seq {
		prog, req := progs[p], int64(i)
		r0, p0 := reg.Stats(), pool.Stats()
		root := rec.begin("service.request", 0, req)
		step := func(name string, fn func()) time.Duration { return rec.timed(name, root, req, fn) }
		var art *core.Artifact
		var pp *sim.PredecodedProgram
		var lease *service.Lease
		var rep *sim.Report
		var err error
		dSrc := step("Registry.Source", func() { art, err = reg.Source(prog.Name, prog.Source, core.LevelStack) })
		if err != nil {
			rec.end(root)
			return 0, err
		}
		first := !seen[art]
		seen[art] = true
		dPre := step("Artifact.Predecoded", func() { pp, err = art.Predecoded(cfg.Degree) })
		if err != nil {
			rec.end(root)
			return 0, err
		}
		// The request path compiles and records lazily inside the first
		// derivation; calling both first gives each its own span.  A failure
		// in either only makes the derivation fall back to a full replay.
		dComp := step("PredecodedProgram.Compiled", func() { _, _ = pp.Compiled() })
		dTrace := step("PredecodedProgram.Trace", func() { _, _ = pp.Trace() })
		dAcq := step("Pool.Acquire", func() { lease, err = pool.Acquire(pp, core.WithDTB, cfg) })
		if err != nil {
			rec.end(root)
			return 0, err
		}
		step("Replayer.ReplayDerived", func() { rep, err = lease.R.ReplayDerived() })
		if err == nil {
			step("Report.Clone", func() { rep = rep.Clone() })
		}
		step("Lease.Release", func() {
			if reg.Live(art) {
				lease.Release()
			} else {
				lease.Discard()
			}
		})
		step("Registry.Sync", func() { reg.Sync(art) })
		d := rec.end(root)
		if err == nil {
			w := wireOf(rep)
			err = prog.check(&w)
		}
		res.record(err)
		r1, p1 := reg.Stats(), pool.Stats()
		regHit, poolHit := r1.Hits > r0.Hits, p1.Hits > p0.Hits
		reqUS = append(reqUS, us(d))
		if regHit && poolHit {
			hitReq = append(hitReq, us(d))
		}
		if regHit {
			srcHit = append(srcHit, us(dSrc))
		} else {
			srcMiss = append(srcMiss, us(dSrc))
		}
		if poolHit {
			acqHit = append(acqHit, us(dAcq))
		} else {
			acqMiss = append(acqMiss, us(dAcq))
		}
		if first {
			firstPre, firstComp, firstTrace = append(firstPre, us(dPre)), append(firstComp, us(dComp)), append(firstTrace, us(dTrace))
		}
	}
	r, ps := reg.Stats(), pool.Stats()
	n := float64(len(seq))
	m := res.Metrics
	reqs := newDist(reqUS)
	m["service.request_p50_us"] = reqs.q(0.5)
	m["service.request_p99_us"] = reqs.q(0.99)
	m["registry.source_hit_us"] = median(srcHit)
	m["registry.source_miss_us"] = median(srcMiss)
	m["registry.hit_ratio"] = float64(r.Hits-regBefore.Hits) / n
	m["registry.evictions_per_krun"] = float64(r.Evictions-regBefore.Evictions) * 1e3 / n
	m["registry.bytes_mb"] = mib(r.Bytes)
	m["pool.acquire_hit_us"] = median(acqHit)
	m["pool.acquire_miss_us"] = median(acqMiss)
	m["pool.hit_ratio"] = float64(ps.Hits) / n
	m["build.encode_predecode_us"] = median(firstPre)
	m["build.closure_compile_us"] = median(firstComp)
	m["trace.record_us"] = median(firstTrace)
	res.Diag["registry_lookups"] = len(seq)
	res.Diag["service_hit_requests"] = len(hitReq)
	var self, total int64
	for _, s := range rec.snapshot() {
		if s.Name == "service.request" {
			self += s.Self
			total += s.End - s.Start
		}
	}
	m["trace.unattributed_share"] = ratio(float64(self), float64(total))
	return median(hitReq), nil
}

// wireOf is a simulation report in the fields uhmd's JSON carries.
func wireOf(r *sim.Report) reportWire {
	return reportWire{
		Output:          r.Output,
		Instructions:    r.Instructions,
		FetchCycles:     int64(r.FetchCycles),
		DecodeCycles:    int64(r.DecodeCycles),
		TranslateCycles: int64(r.TranslateCycles),
		SemanticCycles:  int64(r.SemanticCycles),
		TotalCycles:     int64(r.TotalCycles),
		DTBHitRatio:     r.Measured.HD,
	}
}

// simReps is how often probeSim times each replay and derivation; it keeps
// the median.
const simReps = 3

// probeSim replays and derives each program under every organisation on one
// replayer per organisation, checks that both answers agree with each other
// and with the oracle, and reports time per simulated instruction.
func probeSim(rec *recorder, res *result, progs []*program, which []int) error {
	cfg := core.DefaultConfig()
	replayNS := make(map[core.Strategy]float64)
	deriveNS := make(map[core.Strategy]float64)
	instrs := make(map[core.Strategy]float64)
	var dtbHits, dtbCycles, dtbInstrs float64
	for _, p := range which {
		prog, req := progs[p], int64(p)
		root := rec.begin("sim.program", 0, req)
		art, err := core.BuildSource(prog.Name, prog.Source, core.LevelStack)
		if err != nil {
			return err
		}
		pp, err := art.Predecoded(cfg.Degree)
		if err != nil {
			return err
		}
		if _, err := pp.Trace(); err != nil {
			return err
		}
		for _, s := range core.Strategies() {
			r, err := sim.NewReplayer(pp, s, cfg)
			if err != nil {
				return err
			}
			var replay, derive []float64
			var sim1, der *sim.Report
			for range simReps {
				d := rec.timed("Replayer.Replay", root, req, func() { sim1, err = r.Replay() })
				if err != nil {
					return fmt.Errorf("%s %v replay: %w", prog.Name, s, err)
				}
				replay = append(replay, float64(d))
				sim1 = sim1.Clone()
				d = rec.timed("Replayer.Derive", root, req, func() { der, err = r.Derive() })
				if err != nil {
					return fmt.Errorf("%s %v derive: %w", prog.Name, s, err)
				}
				derive = append(derive, float64(d))
			}
			switch {
			case !slices.Equal(sim1.Output, prog.Output):
				res.record(fmt.Errorf("%s %v: replay output %v, oracle %v", prog.Name, s, sim1.Output, prog.Output))
			case sim.DiffReports(der, sim1) != "":
				res.record(fmt.Errorf("%s %v: derived report differs: %s", prog.Name, s, sim.DiffReports(der, sim1)))
			default:
				res.record(nil)
			}
			replayNS[s] += median(replay)
			deriveNS[s] += median(derive)
			instrs[s] += float64(sim1.Instructions)
			if s == core.WithDTB {
				dtbHits += sim1.Measured.HD * float64(sim1.Instructions)
				dtbCycles += float64(sim1.TotalCycles)
				dtbInstrs += float64(sim1.Instructions)
			}
		}
		rec.end(root)
	}
	m := res.Metrics
	for _, s := range core.Strategies() {
		m["replay."+s.String()+"_ns_per_instr"] = ratio(replayNS[s], instrs[s])
		m["derive."+s.String()+"_ns_per_instr"] = ratio(deriveNS[s], instrs[s])
	}
	m["sim.dtb_hit_ratio"] = ratio(dtbHits, dtbInstrs)
	m["sim.cycles_per_instr"] = ratio(dtbCycles, dtbInstrs)
	return nil
}

// replayerMB is the heap one DTB replayer of the program holds, averaged
// over probeReplayers of them.
func replayerMB(prog *program) (float64, error) {
	cfg := core.DefaultConfig()
	art, err := core.BuildSource(prog.Name, prog.Source, core.LevelStack)
	if err != nil {
		return 0, err
	}
	pp, err := art.Predecoded(cfg.Degree)
	if err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rs := make([]*sim.Replayer, probeReplayers)
	for i := range rs {
		if rs[i], err = sim.NewReplayer(pp, core.WithDTB, cfg); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rs)
	return mib(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / probeReplayers, nil
}

// probeConformance times core.CheckConformance on each program and then the
// same program's layer calls one by one under a conformance.program span:
// regeneration, the oracle, a build per level, an encode and predecode per
// degree, and a replay and derivation per organisation.
func probeConformance(rec *recorder, res *result, progs []*program, which []int) error {
	cfg := core.DefaultConfig()
	var checkMS, encodeUS, oracleUS, unattributed []float64
	for _, p := range which {
		prog, req := progs[p], int64(p)
		start := time.Now()
		divs, err := core.CheckConformance(prog.Name, prog.Source, cfg)
		check := time.Since(start)
		if err != nil {
			return err
		}
		if len(divs) > 0 {
			res.record(fmt.Errorf("%s: %d divergences, first: %s", prog.Name, len(divs), divs[0]))
		} else {
			res.record(nil)
		}
		checkMS = append(checkMS, ms(check))

		root := rec.begin("conformance.program", 0, req)
		var layers time.Duration // every span but the regeneration
		step := func(name string, fn func()) time.Duration {
			d := rec.timed(name, root, req, fn)
			layers += d
			return d
		}
		rec.timed("GenerateArchetype", root, req, func() {
			var g *gen.Program
			g, err = workload.GenerateArchetype(prog.Archetype, prog.Seed)
			if err == nil && g.Source != prog.Source {
				err = errors.New("regenerated source differs")
			}
		})
		if err != nil {
			return fmt.Errorf("%s: %w", prog.Name, err)
		}
		for li, level := range core.Levels() {
			var art *core.Artifact
			step("BuildSource", func() { art, err = core.BuildSource(prog.Name, prog.Source, level) })
			if err != nil {
				return err
			}
			if li == 0 {
				var out []int64
				oracleUS = append(oracleUS, us(step("Artifact.Reference", func() { out, err = art.Reference() })))
				if err != nil {
					return err
				}
				if !slices.Equal(out, prog.Output) {
					res.record(fmt.Errorf("%s: oracle output %v, generator recorded %v", prog.Name, out, prog.Output))
				}
			}
			for _, degree := range core.Degrees() {
				var bin *dir.Binary
				encodeUS = append(encodeUS, us(step("Encode", func() { bin, err = art.Encode(degree) })))
				if err != nil {
					return err
				}
				var pp *sim.PredecodedProgram
				step("PredecodeBinary", func() { pp, err = sim.PredecodeBinary(bin) })
				if err != nil {
					return err
				}
				step("PredecodedProgram.Compiled", func() { _, _ = pp.Compiled() })
				step("PredecodedProgram.Trace", func() { _, _ = pp.Trace() })
				dcfg := cfg
				dcfg.Degree = degree
				for _, s := range core.Strategies() {
					if err := decomposedRun(step, res, prog, pp, s, dcfg); err != nil {
						return err
					}
				}
			}
		}
		rec.end(root)
		unattributed = append(unattributed, 1-float64(layers)/float64(check))
	}
	m := res.Metrics
	m["sweep.program_ms"] = median(checkMS)
	m["sweep.encode_us"] = median(encodeUS)
	m["oracle.evaluate_us"] = median(oracleUS)
	m["sweep.unattributed_share"] = median(unattributed)
	return nil
}

// decomposedRun builds one replayer, replays and derives once, and records
// whether the answers agree.
func decomposedRun(step func(string, func()) time.Duration, res *result, prog *program,
	pp *sim.PredecodedProgram, s core.Strategy, cfg core.Config) error {
	var r *sim.Replayer
	var rep, der *sim.Report
	var err error
	step("NewReplayer", func() { r, err = sim.NewReplayer(pp, s, cfg) })
	if err != nil {
		return err
	}
	step("Replayer.Replay", func() { rep, err = r.Replay() })
	if err != nil {
		return err
	}
	rep = rep.Clone()
	step("Replayer.Derive", func() { der, err = r.Derive() })
	switch {
	case errors.Is(err, sim.ErrNoTrace):
		res.record(nil) // the documented fallback, not a divergence
	case err != nil:
		return err
	case !slices.Equal(rep.Output, prog.Output):
		res.record(fmt.Errorf("%s %v: output %v, oracle %v", prog.Name, s, rep.Output, prog.Output))
	case sim.DiffReports(der, rep) != "":
		res.record(fmt.Errorf("%s %v: derived report differs: %s", prog.Name, s, sim.DiffReports(der, rep)))
	default:
		res.record(nil)
	}
	return nil
}

// probeHTTP sends each of the sequence's batches through the router and,
// split by the router's own ring, straight to the owning backends, then one
// item at a time to the owners; batches go one after another, and nothing
// runs concurrently but one batch's sub-batches.
func probeHTTP(e *env, res *result, progs []*program, seq []int32, f *fleet, hitReqUS float64) error {
	client := newClient(conns)
	defer client.CloseIdleConnections()
	singles, items := newVerifier(progs, false), newVerifier(progs, true)
	front := f.front.url("/batch/run")
	res.count(countLoop(e.ctx, conns, probeBatches, batchOp(client, front, progs, seq, probeBatch, items)))

	byAddr := make(map[string]*uhmd)
	var addrs []string
	for _, b := range f.backends {
		byAddr[b.addr] = b
		addrs = append(addrs, b.addr)
	}
	ring := router.NewRing(addrs, router.DefaultVnodes)
	owner := func(p int) *uhmd {
		return byAddr[ring.Owners(service.KeyOf(progs[p].Source, core.LevelStack))[0]]
	}
	cpu0, err := procCPU(f.router.pid())
	if err != nil {
		return err
	}
	var routed, direct, single []float64
	var buf bytes.Buffer
	for b := range probeBatches {
		batch := make([]int, probeBatch)
		for k := range batch {
			batch[k] = int(seq[b*probeBatch+k])
		}
		req := int64(b)
		sendRouted := func() {
			id := e.rec.begin("router.batch", 0, req)
			runs, failed, err := sendBatch(client, front, progs, batch, items, &buf)
			routed = append(routed, us(e.rec.end(id)))
			res.countRuns(runs, failed, err)
		}
		sendDirect := func() {
			groups := make(map[*uhmd][]int)
			for _, p := range batch {
				groups[owner(p)] = append(groups[owner(p)], p)
			}
			id := e.rec.begin("direct.batch", 0, req)
			var wg sync.WaitGroup
			var mu sync.Mutex
			for be, group := range groups {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf bytes.Buffer
					sub := e.rec.begin("backend.batch", id, req)
					runs, failed, err := sendBatch(client, be.url("/batch/run"), progs, group, items, &buf)
					e.rec.end(sub)
					mu.Lock()
					res.countRuns(runs, failed, err)
					mu.Unlock()
				}()
			}
			wg.Wait()
			direct = append(direct, us(e.rec.end(id)))
		}
		// Whichever goes first pays the batch's registry and pool misses, so
		// the two take turns.
		if b%2 == 0 {
			sendRouted()
			sendDirect()
		} else {
			sendDirect()
			sendRouted()
		}

		for _, p := range batch {
			id := e.rec.begin("http.run", 0, req)
			seq1 := []int32{int32(p)}
			runs, failed, err := runOp(client, owner(p).url("/v1/run"), progs, seq1, singles)(0, &buf)
			single = append(single, us(e.rec.end(id)))
			res.countRuns(runs, failed, err)
		}
	}
	cpu1, err := procCPU(f.router.pid())
	if err != nil {
		return err
	}
	m := res.Metrics
	m["router.overhead_p50_us"] = median(routed) - median(direct)
	m["router.cpu_us_per_run"] = us(cpu1-cpu0) / (probeBatches * probeBatch)
	m["http.overhead_p50_us"] = median(single) - hitReqUS
	return nil
}

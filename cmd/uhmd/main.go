// Command uhmd is the long-running UHM service: the paper's amortisation
// argument applied to a server.  Where cmd/uhmrun buffers binding work —
// parse, compile, encode, predecode, closure-compile — for the lifetime of
// one process run and then throws it away, uhmd keeps every built artifact
// in a content-addressed registry, shared by all concurrent requests, and
// parks each warmed simulator on the predecoded program it replays, under
// the registry's byte budget.  A repeated request does zero rebuild work and
// answers from a simulator whose hierarchy, DTB, cache and machine already
// exist and which holds the report it derived.
//
// Endpoints (JSON over HTTP):
//
//	GET  /healthz          liveness
//	GET  /v1/stats         registry and pool counters
//	GET  /v1/workloads     built-in workload names
//	POST /v1/run           one program under one organisation
//	POST /v1/compare       one program under every organisation + equivalence verdict
//	POST /v1/conformance   full differential cross-product on a program or generator seed
//	POST /v1/experiments   a named uhmbench experiment, rendered
//
// Usage:
//
//	uhmd -addr :8080
//	curl -s localhost:8080/v1/run -d '{"workload":"sieve","strategy":"dtb"}'
//	curl -s localhost:8080/v1/stats
//
// Batch endpoints (POST /batch/run, /batch/compare) carry many runs in one
// envelope: one decode, one admission slot, one response write, with
// per-item statuses so one bad program fails itself, not its siblings.
//
// Fleet mode: with -router and -backends, this process stops simulating and
// starts placing — each request's content-addressed program key is
// consistent-hashed across the backend fleet (internal/router), so every
// distinct program is built on exactly one backend.  The local service
// remains as the fallback when all backends are down:
//
//	uhmd -addr :9000 -router -backends localhost:9001,localhost:9002
//
// Overload is answered, not queued forever: a request that cannot get a
// worker slot within -queue-timeout receives a structured 503 with a
// Retry-After header.  Every response carries an X-Request-ID (echoed from
// the request, or generated) that also tags the access log line and the JSON
// error body.  -faults activates the deterministic fault-injection plan from
// internal/faultinject — a test-and-chaos facility, never set in production.
//
// The server shuts down gracefully on SIGINT/SIGTERM: listeners close, in-
// flight requests run to completion (bounded by -drain), new work is
// refused.  A client that stalls is cut off: its headers must arrive within
// ten seconds, and so must each read of its body.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"strings"

	"uhm/internal/faultinject"
	"uhm/internal/router"
	"uhm/internal/service"
	"uhm/internal/store"
)

// options carries the parsed uhmd flags into run.
type options struct {
	addr           string
	workers        int
	cacheBytes     int64
	drain          time.Duration
	queueTimeout   time.Duration
	requestTimeout time.Duration
	faults         string
	faultSeed      int64
	storeDir       string
	warmStart      int

	// Fleet mode: -router turns this uhmd into the consistent-hash front end
	// for the -backends fleet instead of a single-node server.  The local
	// service still exists in router mode — it is the fallback that serves
	// single-node when every backend is down.
	router          bool
	backends        string
	probeInterval   time.Duration
	backendInflight int
}

// registerFlags binds the uhmd flags to opts on the given flag set, so tests
// can parse argument vectors without touching the process-global set.
func registerFlags(fs *flag.FlagSet, opts *options) {
	fs.StringVar(&opts.addr, "addr", "localhost:8080", "listen address")
	fs.IntVar(&opts.workers, "workers", 0, "bound on concurrently served requests (0 = one per CPU)")
	fs.Int64Var(&opts.cacheBytes, "cache-bytes", 256<<20, "artifact-registry byte budget (0 = unbounded)")
	fs.DurationVar(&opts.drain, "drain", 30*time.Second, "graceful-shutdown drain budget for in-flight requests")
	fs.DurationVar(&opts.queueTimeout, "queue-timeout", 10*time.Second, "bound on waiting for a worker slot before answering 503 (0 = wait forever)")
	fs.DurationVar(&opts.requestTimeout, "request-timeout", 0, "per-request deadline (0 = none)")
	fs.StringVar(&opts.faults, "faults", "", "fault-injection plan spec, e.g. 'registry/build:p=0.1,count=3' (testing only)")
	fs.Int64Var(&opts.faultSeed, "fault-seed", 1, "seed for the -faults plan's PRNG streams")
	fs.StringVar(&opts.storeDir, "store-dir", "", "persistent artifact-store directory; built artifacts are written through to it and misses read through it (empty = memory-only)")
	fs.IntVar(&opts.warmStart, "warm-start", 0, "preload the hottest N artifacts from -store-dir before serving (-1 = all, 0 = none)")
	fs.BoolVar(&opts.router, "router", false, "serve as the fleet front end: consistent-hash requests across -backends instead of simulating locally")
	fs.StringVar(&opts.backends, "backends", "", "comma-separated uhmd backend addresses (host:port), required with -router")
	fs.DurationVar(&opts.probeInterval, "probe-interval", 0, "router health-probe period (0 = 250ms default)")
	fs.IntVar(&opts.backendInflight, "backend-inflight", 0, "router per-backend in-flight request cap (0 = 64 default)")
}

// validate rejects flag combinations run could only fail on later.
func (o *options) validate() error {
	if o.warmStart != 0 && o.storeDir == "" {
		return fmt.Errorf("-warm-start requires -store-dir")
	}
	if o.warmStart < -1 {
		return fmt.Errorf("-warm-start must be -1, 0 or positive (got %d)", o.warmStart)
	}
	if o.router && len(o.backendList()) == 0 {
		return fmt.Errorf("-router requires -backends")
	}
	if !o.router && o.backends != "" {
		return fmt.Errorf("-backends requires -router")
	}
	return nil
}

// backendList splits -backends into its distinct backends, sorted, dropping
// empty segments so trailing commas are harmless.
func (o *options) backendList() []string {
	var out []string
	for _, b := range strings.Split(o.backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func main() {
	var opts options
	fs := flag.NewFlagSet("uhmd", flag.ExitOnError)
	registerFlags(fs, &opts)
	fs.Parse(os.Args[1:])
	if err := opts.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "uhmd:", err)
		os.Exit(2)
	}

	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "uhmd:", err)
		os.Exit(1)
	}
}

func run(opts options) error {
	if opts.faults != "" {
		plan, err := faultinject.ParseSpec(opts.faultSeed, opts.faults)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		restore := faultinject.Activate(plan)
		defer restore()
		log.Printf("uhmd: FAULT INJECTION ACTIVE: seed=%d plan=%s", opts.faultSeed, plan)
	}

	var tier *store.Store
	if opts.storeDir != "" {
		var err error
		if tier, err = store.Open(opts.storeDir); err != nil {
			return fmt.Errorf("-store-dir: %w", err)
		}
	}

	svc := service.New(service.Options{
		CapacityBytes: opts.cacheBytes,
		Workers:       opts.workers,
		QueueTimeout:  opts.queueTimeout,
		Store:         tier,
	})
	if opts.warmStart != 0 {
		loaded, err := svc.Warmstart(opts.warmStart)
		if err != nil {
			return fmt.Errorf("-warm-start: %w", err)
		}
		log.Printf("uhmd: warm start loaded %d artifacts from %s", loaded, opts.storeDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// In-flight requests keep running through the drain window — their base
	// context is NOT the signal context.  Only when the drain budget expires
	// are stragglers cancelled, so shutdown is graceful first, firm second.
	baseCtx, interruptInflight := context.WithCancel(context.Background())
	defer interruptInflight()

	handler := newServer(svc)
	handler.requestTimeout = opts.requestTimeout

	// In router mode the process fronts the fleet: requests consistent-hash
	// across -backends, and the local single-node handler is the fallback
	// that keeps serving when every backend is down.
	var rootHandler http.Handler = handler
	if opts.router {
		rt := router.New(router.Options{
			Backends:      opts.backendList(),
			ProbeInterval: opts.probeInterval,
			MaxInflight:   opts.backendInflight,
			Fallback:      handler,
			Logf:          log.Printf,
		})
		rt.Start()
		defer rt.Close()
		rootHandler = rt
		log.Printf("uhmd: router mode: fanning out across %d backends (%s)",
			len(opts.backendList()), opts.backends)
	}

	srv := &http.Server{
		Addr:              opts.addr,
		Handler:           stallGuard(rootHandler, readStall),
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
		ReadHeaderTimeout: readStall,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("uhmd: serving on %s (%d workers, %d MiB artifact budget, queue timeout %s)",
			opts.addr, svc.Workers(), opts.cacheBytes>>20, opts.queueTimeout)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("uhmd: shutting down, draining in-flight requests (budget %s)", opts.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Drain budget exhausted: cancel the stragglers' contexts and close
		// their connections rather than leaking them.
		interruptInflight()
		_ = srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil {
		return err
	}
	log.Printf("uhmd: drained cleanly")
	return nil
}

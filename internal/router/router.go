package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uhm/internal/faultinject"
	"uhm/internal/service"
	"uhm/internal/wire"
	"uhm/internal/workload"
)

// maxRequestBytes bounds any request body the router will buffer.  It
// matches the uhmd batch bound: the router must be able to hold the largest
// request a backend would accept, because buffering is what makes retries
// byte-identical.
const maxRequestBytes = 8 << 20

// errBackendSaturated distinguishes a per-backend in-flight cap rejection
// from a transport failure: saturation sheds the request with 503 and does
// NOT eject the backend or retry elsewhere (retrying would defeat placement
// and melt the next backend too).
var errBackendSaturated = errors.New("backend at in-flight cap")

// errNoBackends answers a request no backend can serve when no local
// fallback is configured: the outage itself, as a 503 with Retry-After.
var errNoBackends = errors.New("no healthy backends")

// Options configure a Router.
type Options struct {
	// Backends are the uhmd base addresses ("host:port" or full URLs).
	Backends []string
	// Vnodes is the virtual-node count per backend (DefaultVnodes if 0).
	Vnodes int
	// ProbeInterval paces the health loop; ProbeTimeout bounds each probe.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// MaxInflight caps concurrent proxied requests per backend; beyond it
	// the router sheds with 503 + Retry-After.  0 selects 64.
	MaxInflight int
	// Fallback, when set, serves requests locally when no backend is
	// healthy (single-node degradation instead of an outage).
	Fallback http.Handler
	// Client overrides the proxy HTTP client (tests; nil selects a default
	// with sane connection pooling).
	Client *http.Client
	// Logf receives membership transitions and fallback events (nil
	// discards them).
	Logf func(format string, args ...any)
}

// Router is the fleet front end: an http.Handler that speaks the same API
// as a single uhmd and places every request on the backend that owns its
// program key.
type Router struct {
	ring     *Ring
	health   *healthSet
	client   *http.Client
	fallback http.Handler
	inflight map[string]chan struct{}
	probeTO  time.Duration
	interval time.Duration
	logf     func(string, ...any)
	mux      *http.ServeMux

	proxied   atomic.Int64
	retries   atomic.Int64
	fallbacks atomic.Int64
	rejected  atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	done     chan struct{}
}

// New builds a Router over the backend set.  Call Start to begin health
// probing and Close to stop it.
func New(opts Options) *Router {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = defaultProbeInterval
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = defaultProbeTimeout
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 64
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: opts.MaxInflight,
		}}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	rt := &Router{
		ring:     NewRing(opts.Backends, opts.Vnodes),
		health:   newHealthSet(opts.Backends),
		client:   opts.Client,
		fallback: opts.Fallback,
		inflight: make(map[string]chan struct{}, len(opts.Backends)),
		probeTO:  opts.ProbeTimeout,
		interval: opts.ProbeInterval,
		logf:     opts.Logf,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, b := range rt.ring.Backends() {
		rt.inflight[b] = make(chan struct{}, opts.MaxInflight)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/workloads", rt.handleAny)
	mux.HandleFunc("POST /v1/run", rt.handleKeyed)
	mux.HandleFunc("POST /v1/compare", rt.handleKeyed)
	mux.HandleFunc("POST /v1/conformance", rt.handleSpread)
	mux.HandleFunc("POST /v1/experiments", rt.handleSpread)
	mux.HandleFunc("POST /batch/run", rt.handleBatch)
	mux.HandleFunc("POST /batch/compare", rt.handleBatch)
	rt.mux = mux
	return rt
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Start launches the health probe loop (with one immediate round, so a
// backend that is down at boot is ejected before it eats live traffic).
func (rt *Router) Start() {
	if !rt.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(rt.done)
		rt.probeOnce()
		t := time.NewTicker(rt.interval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.probeOnce()
			}
		}
	}()
}

// Close stops the probe loop.  In-flight proxied requests are unaffected.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	if rt.started.Load() {
		<-rt.done
	}
}

// probeOnce probes every due backend concurrently and applies the verdicts.
func (rt *Router) probeOnce() {
	due := rt.health.due(time.Now())
	var wg sync.WaitGroup
	for _, b := range due {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			if rt.probe(b) {
				if rt.health.readmit(b) {
					rt.logf("router: backend %s readmitted", b)
				}
			} else if rt.health.eject(b, time.Now()) {
				rt.logf("router: backend %s ejected (probe failed)", b)
			}
		}(b)
	}
	wg.Wait()
}

func (rt *Router) probe(backend string) bool {
	if err := faultinject.Fire(faultinject.SiteRouterHealth); err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.probeTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backendURL(backend, "/healthz"), nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

func backendURL(backend, path string) string {
	if len(backend) >= 7 && (backend[:7] == "http://" || (len(backend) >= 8 && backend[:8] == "https://")) {
		return backend + path
	}
	return "http://" + backend + path
}

// placement is the part of a run request its ring position depends on: the
// fields of its program key.  Full validation is left to the backend.
type placement struct{ Workload, Source, Level string }

// placementHash is a request's ring position: its program key's, or its
// bytes' when it names none (err, p's decode error, is set; an unknown
// workload; a bad level), since it still needs a backend to answer its error.
func placementHash(body []byte, p placement, err error) uint64 {
	src := p.Source
	if p.Workload != "" {
		src, _ = workload.Source(p.Workload) // "" for an unknown workload
	}
	level, lerr := wire.ParseLevel(p.Level)
	if err != nil || lerr != nil || src == "" {
		return bodyHash(body)
	}
	return KeyHash(service.KeyOf(src, level))
}

func bodyHash(body []byte) uint64 { return hash64(string(body)) }

// handleKeyed places /v1/run and /v1/compare by program key.
func (rt *Router) handleKeyed(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var p placement
	err := json.Unmarshal(body, &p)
	rt.forward(w, r, body, rt.ring.OwnersFromHash(placementHash(body, p, err)))
}

// handleSpread places un-keyed POSTs (conformance, experiments) by body
// hash: deterministic, evenly spread, no placement guarantee needed.
func (rt *Router) handleSpread(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	rt.forward(w, r, body, rt.ring.OwnersFromHash(bodyHash(body)))
}

// handleAny serves read-only GETs from any healthy backend.
func (rt *Router) handleAny(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, nil, rt.ring.Backends())
}

// readBody buffers a request body as its bytes arrive, not by its declared
// Content-Length, so a client that stalls holds only what it has sent.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err), "")
		return nil, false
	}
	return body, true
}

// forward tries each owner in ring order, skipping unhealthy backends,
// ejecting (and retrying on the next owner) on transport failure, and
// falling back to the local handler when the whole list is exhausted (with
// no fallback configured the outage is answered 503).  A backend that
// answered — any status — ends the walk: HTTP-level errors (422, 503, ...)
// are real answers owned by the placement, not routing failures.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, owners []string) {
	for _, b := range owners {
		if !rt.health.isHealthy(b) {
			continue
		}
		resp, err := rt.try(r, b, body)
		if err == errBackendSaturated {
			rt.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			wire.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("backend %s %w", b, err), "")
			return
		}
		if err != nil {
			if rt.health.eject(b, time.Now()) {
				rt.logf("router: backend %s ejected (%v)", b, err)
			}
			rt.retries.Add(1)
			continue
		}
		rt.proxied.Add(1)
		copyResponse(w, resp)
		return
	}
	resp, err := rt.serveLocal(r, body)
	if err != nil {
		if err == errNoBackends {
			w.Header().Set("Retry-After", "1")
		}
		wire.WriteError(w, http.StatusServiceUnavailable, err, "")
		return
	}
	copyResponse(w, resp)
}

// bufferedResponse is a fully-read answer, safe to replay to the client after
// whatever produced it is gone: a backend's, read off its connection, or the
// local fallback's, rendered into it as the handler's ResponseWriter.
type bufferedResponse struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(status int) {
	if b.status == 0 {
		b.status = status
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	return b.body.Write(p)
}

// try proxies one buffered request to one backend under its in-flight cap.
// Any error return other than errBackendSaturated means the backend did not
// answer and is presumed dead.
func (rt *Router) try(r *http.Request, backend string, body []byte) (*bufferedResponse, error) {
	sem := rt.inflight[backend]
	select {
	case sem <- struct{}{}:
		defer func() { <-sem }()
	default:
		return nil, errBackendSaturated
	}
	if err := faultinject.Fire(faultinject.SiteRouterProxy); err != nil {
		return nil, fmt.Errorf("injected proxy fault: %w", err)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, backendURL(backend, r.URL.Path), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := r.Header.Get("X-Request-ID"); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := &bufferedResponse{status: resp.StatusCode, header: resp.Header}
	if _, err := out.body.ReadFrom(resp.Body); err != nil {
		// The backend died mid-response; the buffered request makes the
		// retry on the next owner safe.
		return nil, err
	}
	return out, nil
}

// serveLocal answers a buffered request from the fallback handler, the last
// owner when no backend can answer.  It renders into memory, so its answer is
// replayed or merged exactly like a backend's.
func (rt *Router) serveLocal(r *http.Request, body []byte) (*bufferedResponse, error) {
	if err := faultinject.Fire(faultinject.SiteRouterFallback); err != nil {
		return nil, fmt.Errorf("injected fallback fault: %w", err)
	}
	if rt.fallback == nil {
		return nil, errNoBackends
	}
	rt.fallbacks.Add(1)
	rt.logf("router: no healthy backends, serving %s locally", r.URL.Path)
	r2 := r.Clone(r.Context())
	if body != nil {
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
	}
	out := &bufferedResponse{header: make(http.Header)}
	rt.fallback.ServeHTTP(out, r2)
	out.WriteHeader(http.StatusOK) // a handler that wrote nothing answered 200
	return out, nil
}

// forwardedHeaders are the answer headers that reach the client through the
// router: the body's type, an overload's back-off hint, and the request ID.
var forwardedHeaders = []string{"Content-Type", "Retry-After", "X-Request-ID"}

func copyResponse(w http.ResponseWriter, resp *bufferedResponse) {
	for _, k := range forwardedHeaders {
		if v := resp.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(resp.body.Len()))
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body.Bytes())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy, unhealthy, _, _ := rt.health.view()
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"healthy":   len(healthy),
		"unhealthy": len(unhealthy),
	})
}

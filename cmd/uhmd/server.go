package main

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"uhm/internal/core"
	"uhm/internal/faultinject"
	"uhm/internal/service"
	"uhm/internal/wire"
	"uhm/internal/workload/gen"
)

// maxRequestBytes bounds a request body; submitted programs are source text,
// so a megabyte is generous.
const maxRequestBytes = 1 << 20

// maxBatchRequestBytes bounds a batch envelope (many programs per body), and
// maxBatchItems bounds how many runs one admission slot may carry.
const (
	maxBatchRequestBytes = 8 << 20
	maxBatchItems        = 256
)

// server wires the HTTP API (the internal/wire contract) to one shared
// service.Service.  Every handler propagates the request context into the
// service and the engine: client disconnects and server shutdown cancel slot
// admission, engine grid dispatch, and the between-strategy checks of a
// comparison.  An individual replay is not interruptible mid-run — it is
// bounded instead, by the server-side max_instructions cap enforced in
// validate.
//
// ServeHTTP wraps every handler in the robustness envelope: a request ID
// (accepted from X-Request-ID or generated) that tags the access log line and
// every error response, an optional per-request deadline, and a last-resort
// panic backstop.  Run-path panics are normally recovered a layer down, in
// service.Service, which also quarantines the offending artifact; the
// backstop here only catches handler bugs, so no panic ever kills the
// listener.
type server struct {
	svc    *service.Service
	engine core.Engine
	mux    *http.ServeMux
	// requestTimeout, when positive, bounds each request's context.
	requestTimeout time.Duration
}

func newServer(svc *service.Service) *server {
	s := &server{svc: svc, engine: svc.Engine()}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("POST /batch/run", s.handleBatchRun)
	mux.HandleFunc("POST /batch/compare", s.handleBatchCompare)
	mux.HandleFunc("POST /v1/conformance", s.handleConformance)
	mux.HandleFunc("POST /v1/experiments", s.handleExperiment)
	s.mux = mux
	return s
}

// requestIDKey carries the request's ID in its context.
type requestIDKey struct{}

// requestIDFrom returns the ID ServeHTTP attached to the request context, or
// "" for a context that never passed through the envelope (tests constructing
// bare requests).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID mints a 16-hex-digit random ID for requests that arrive
// without an X-Request-ID header.
func newRequestID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// The process rand source failing is unheard of; fall back to a
		// monotone-ish stamp rather than refuse the request.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// statusWriter records the status and whether a body write started, so the
// access log can report what was sent and the panic backstop knows whether a
// structured error response is still possible.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	ctx := context.WithValue(r.Context(), requestIDKey{}, id)
	if s.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
		defer cancel()
	}
	r = r.WithContext(ctx)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			// Last-resort isolation: run-path panics are recovered (and the
			// artifact quarantined) inside service.Service, so anything
			// reaching here is a handler bug.  Answer structurally if the
			// response has not started, and keep the listener alive either way.
			log.Printf("uhmd: panic serving %s %s id=%s: %v", r.Method, r.URL.Path, id, v)
			if !sw.wrote {
				writeError(sw, r, http.StatusInternalServerError,
					fmt.Errorf("internal error: %v", v))
			}
		}
		log.Printf("uhmd: %s %s -> %d (%s) id=%s",
			r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond), id)
	}()
	s.mux.ServeHTTP(sw, r)
}

// writeError answers err as a JSON error tagged with the request's ID, with
// a Retry-After header when the service shed it for overload.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	var overload *service.OverloadError
	if errors.As(err, &overload) {
		w.Header().Set("Retry-After", strconv.Itoa(int(overload.RetryAfter/time.Second)))
	}
	wire.WriteError(w, status, err, requestIDFrom(r.Context()))
}

// readStall bounds how long a client may stall: sending its headers, and
// between reads of its body.
const readStall = 10 * time.Second

// stallGuard wraps h, the single server or the router, so that every read of
// a request body has a deadline stall away, armed before h runs and
// refreshed by each read: a client that sends its headers and then stalls is
// refused, and net/http's drain of a body h left unread is bounded too,
// while a long body that keeps arriving is not cut off.
func stallGuard(h http.Handler, stall time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != 0 {
			b := &stallBody{ReadCloser: r.Body, rc: http.NewResponseController(w), stall: stall}
			_ = b.rc.SetReadDeadline(time.Now().Add(stall))
			r.Body = b
		}
		h.ServeHTTP(w, r)
	})
}

// stallBody is a request body whose reads each refresh the read deadline.
// Hitting EOF clears it for good: net/http then reads the connection in the
// background, and a deadline firing there would cancel the context of a
// handler still at work.  A failed read leaves it set: net/http drains the
// unread rest before it writes the answer, and must not wait there on a
// stalled client.  SetReadDeadline fails only on a writer without
// deadlines, such as a test recorder, whose body then reads without one.
type stallBody struct {
	io.ReadCloser
	rc    *http.ResponseController
	stall time.Duration
	done  bool
}

func (b *stallBody) Read(p []byte) (int, error) {
	if b.done {
		return b.ReadCloser.Read(p)
	}
	_ = b.rc.SetReadDeadline(time.Now().Add(b.stall))
	n, err := b.ReadCloser.Read(p)
	b.done = err != nil
	if err == io.EOF {
		_ = b.rc.SetReadDeadline(time.Time{})
	}
	return n, err
}

// decodeBody parses the JSON request body strictly: unknown fields are
// rejected so a misspelled parameter fails loudly instead of silently
// selecting a default.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeBodyLimit(w, r, v, maxRequestBytes)
}

func decodeBodyLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	if ferr := faultinject.Fire(faultinject.SiteDecode); ferr != nil {
		return fmt.Errorf("malformed request body: %w", ferr)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	// A body is one JSON value.  The router places a body it cannot parse by
	// the hash of its bytes, so serving one with data after its value would
	// build the program on a backend that does not own it.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("malformed request body: data after the JSON value")
	}
	return nil
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, struct {
		Workers int           `json:"workers"`
		Stats   service.Stats `json:"stats"`
	}{Workers: s.svc.Workers(), Stats: s.svc.Stats()})
}

func (s *server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string][]string{"workloads": core.Workloads()})
}

// item is one run or compare of a call: the service request its wire form
// validated to and, once served, its outcome.  status stays 0 until the item
// is answered; validation failures are answered before any slot is taken.
type item struct {
	req      service.Request
	strategy core.Strategy
	status   int
	err      error
	report   *core.Report   // a run's
	reports  []*core.Report // a comparison's, in core.Strategies() order
}

// validate turns one wire request into the item it names.  Its failures are
// the client's request shape (400); resolving the program itself — build,
// parse — happens later, under a service request slot, and fails as 422.  A
// comparison runs every organisation, so it refuses a strategy.
func validate(in *wire.RunRequest, compare bool) item {
	it := item{status: http.StatusBadRequest}
	if compare && in.Strategy != "" {
		it.err = errors.New("compare runs every strategy; drop the strategy field")
		return it
	}
	if it.strategy, it.err = wire.ParseStrategy(in.Strategy); it.err != nil {
		return it
	}
	if it.req.Level, it.err = wire.ParseLevel(in.Level); it.err != nil {
		return it
	}
	cfg := core.DefaultConfig()
	if cfg.Degree, it.err = wire.ParseDegree(in.Degree); it.err != nil {
		return it
	}
	// A replay is not interruptible mid-run (the loop is the 0-alloc hot
	// path); what bounds how long a request can hold a worker slot is the
	// instruction budget, so the server refuses budgets above its own
	// default rather than letting a client wedge a slot arbitrarily long.
	switch {
	case in.MaxInstructions < 0:
		it.err = errors.New("max_instructions must be non-negative")
	case in.MaxInstructions > cfg.MaxInstructions:
		it.err = fmt.Errorf("max_instructions above the server bound %d", cfg.MaxInstructions)
	case in.Workload != "" && in.Source != "":
		it.err = errors.New("specify either workload or source, not both")
	case in.Workload != "":
		it.req.Name, it.req.Workload = in.Workload, in.Workload
	case in.Source != "":
		it.req.Name, it.req.Source = in.Name, in.Source
		if it.req.Name == "" {
			it.req.Name = "submitted"
		}
	default:
		it.err = errors.New("specify workload or source")
	}
	if it.err != nil {
		return it
	}
	cfg.MaxInstructions = in.MaxInstructions // 0 selects the default
	it.req.Config = cfg
	it.status = 0
	return it
}

// serve answers a call's pending items: they are admitted together, under
// one request slot — so build and run both count against the -workers
// bound — and run or compared in order, each answering the status it would
// have received alone.  A call whose items all failed validation takes no
// slot.  Only admission failure (overload, cancellation) fails the call as a
// whole.
func (s *server) serve(r *http.Request, items []item, compare bool) error {
	pending := false
	for i := range items {
		pending = pending || items[i].status == 0
	}
	if !pending {
		return nil
	}
	return s.svc.Admit(r.Context(), func(ctx context.Context, run *service.Runner) error {
		for i := range items {
			it := &items[i]
			if it.status != 0 {
				continue
			}
			if compare {
				it.reports, it.err = run.Compare(ctx, &it.req)
			} else {
				it.report, it.err = run.Run(ctx, &it.req, it.strategy)
			}
			// A divergent comparison still answers 200, with the
			// per-strategy reports attached as evidence.
			it.status = http.StatusOK
			if it.err != nil && len(it.reports) == 0 {
				it.status = statusFor(r, it.err)
			}
		}
		return nil
	})
}

// runItem renders an answered run in its batch wire form.
func (it *item) runItem() wire.BatchRunItem {
	if it.status != http.StatusOK {
		return wire.BatchRunItem{Status: it.status, Error: it.err.Error()}
	}
	rep := wire.NewReport(it.req.Name, it.req.Level, it.report)
	return wire.BatchRunItem{Status: http.StatusOK, Report: &rep}
}

// compareItem renders an answered comparison in its batch wire form.
func (it *item) compareItem() wire.BatchCompareItem {
	if it.status != http.StatusOK {
		return wire.BatchCompareItem{Status: it.status, Error: it.err.Error()}
	}
	c := wire.BatchCompareItem{Status: http.StatusOK, Agree: it.err == nil, Output: it.reports[0].Output}
	if it.err != nil {
		// The paper's equivalence invariant failed: report the divergence
		// with the per-strategy evidence attached.
		c.Error = it.err.Error()
	}
	for _, rep := range it.reports {
		c.Reports = append(c.Reports, wire.NewReport(it.req.Name, it.req.Level, rep))
	}
	return c
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request)     { s.handleOne(w, r, false) }
func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) { s.handleOne(w, r, true) }

// handleOne serves /v1/run and /v1/compare: a call of one item, answered
// with its report or comparison, or with its error as the whole response.
func (s *server) handleOne(w http.ResponseWriter, r *http.Request, compare bool) {
	var in wire.RunRequest
	if err := decodeBody(w, r, &in); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	items := [1]item{validate(&in, compare)}
	if err := s.serve(r, items[:], compare); err != nil {
		writeError(w, r, statusFor(r, err), err)
		return
	}
	switch it := &items[0]; {
	case it.status != http.StatusOK:
		writeError(w, r, it.status, it.err)
	case compare:
		c := it.compareItem()
		wire.WriteJSON(w, http.StatusOK, wire.CompareResponse{
			Output: c.Output, Agree: c.Agree, Error: c.Error, Reports: c.Reports})
	default:
		wire.WriteJSON(w, http.StatusOK, wire.RunResponse{Report: wire.NewReport(it.req.Name, it.req.Level, it.report)})
	}
}

func (s *server) handleBatchRun(w http.ResponseWriter, r *http.Request) { s.handleBatch(w, r, false) }
func (s *server) handleBatchCompare(w http.ResponseWriter, r *http.Request) {
	s.handleBatch(w, r, true)
}

// handleBatch serves /batch/run and /batch/compare, the single endpoints
// amortised: the envelope is decoded once, admitted once (one request slot
// for the whole batch), and answered in one response write.  Empty and
// oversized envelopes are whole-request errors (400); everything past that
// is per item.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request, compare bool) {
	var in wire.BatchRequest
	err := decodeBodyLimit(w, r, &in, maxBatchRequestBytes)
	switch {
	case err != nil:
	case len(in.Items) == 0:
		err = errors.New("batch requires at least one item")
	case len(in.Items) > maxBatchItems:
		err = fmt.Errorf("batch carries %d items, above the server bound %d", len(in.Items), maxBatchItems)
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	items := make([]item, len(in.Items))
	for i := range in.Items {
		items[i] = validate(&in.Items[i], compare)
	}
	if err := s.serve(r, items, compare); err != nil {
		writeError(w, r, statusFor(r, err), err)
		return
	}
	failed := 0
	for i := range items {
		if items[i].status != http.StatusOK {
			failed++
		}
	}
	if compare {
		out := make([]wire.BatchCompareItem, len(items))
		for i := range items {
			out[i] = items[i].compareItem()
		}
		wire.WriteJSON(w, http.StatusOK, wire.BatchCompareResponse{Items: out, Failed: failed})
		return
	}
	out := make([]wire.BatchRunItem, len(items))
	for i := range items {
		out[i] = items[i].runItem()
	}
	wire.WriteJSON(w, http.StatusOK, wire.BatchRunResponse{Items: out, Failed: failed})
}

func (s *server) handleConformance(w http.ResponseWriter, r *http.Request) {
	var req wire.ConformanceRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	name, src := req.Name, req.Source
	switch {
	case req.Source != "" && req.Seed != nil:
		writeError(w, r, http.StatusBadRequest, errors.New("specify either source or seed, not both"))
		return
	case req.Seed != nil:
		p, err := gen.Generate(*req.Seed)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		name, src = p.Name, p.Source
	case req.Source != "":
		if name == "" {
			name = "submitted"
		}
	default:
		writeError(w, r, http.StatusBadRequest, errors.New("specify source or seed"))
		return
	}
	divs, err := s.svc.Conformance(r.Context(), name, src, core.DefaultConfig())
	if err != nil {
		writeError(w, r, statusFor(r, err), err)
		return
	}
	resp := wire.ConformanceResponse{Name: name, Conforms: len(divs) == 0}
	for _, d := range divs {
		resp.Divergences = append(resp.Divergences, d.String())
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req wire.ExperimentRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	// An experiment fans out to the engine's full worker width, so it is
	// admitted exclusively — holding every request slot — which keeps total
	// simulation concurrency exactly at the -workers bound.  It renders
	// through the registry-backed engine, sharing the server's artifact
	// cache; the sweep grows registry artifacts outside the per-request
	// accounting path, so the byte budget is re-synced afterwards.  Seed 1
	// is uhmbench's -seed default, so both render the same populations.
	var text string
	err := s.svc.AdmitExclusive(r.Context(), func(ctx context.Context) error {
		var err error
		text, err = s.engine.Experiment(ctx, req.Name,
			core.ExperimentOptions{Workload: req.Workload, Seed: 1}, core.DefaultConfig())
		s.svc.Registry().SyncAll()
		return err
	})
	if err != nil {
		status := statusFor(r, err)
		if errors.Is(err, core.ErrUnknownExperiment) {
			status = http.StatusBadRequest
		}
		writeError(w, r, status, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.ExperimentResponse{Name: req.Name, Text: text})
}

// statusFor maps an error to an HTTP status.  The typed service errors come
// first: an overload is 503 (writeError adds the Retry-After header), an
// isolated run panic is 500, a quarantined artifact is 422 (the program is
// poisoned until an operator intervenes, so retrying it is futile).  After
// those, cancellation — whether observed on the request's own context or
// surfaced as a context error from the service — is the client's doing (or
// server shutdown), and everything else is an unprocessable program or a
// simulator failure.
func statusFor(r *http.Request, err error) int {
	var overload *service.OverloadError
	var panicked *service.PanicError
	var quarantined *service.QuarantineError
	switch {
	case errors.As(err, &overload):
		return http.StatusServiceUnavailable
	case errors.As(err, &panicked):
		return http.StatusInternalServerError
	case errors.As(err, &quarantined):
		return http.StatusUnprocessableEntity
	case r.Context().Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

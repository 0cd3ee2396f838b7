package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uhm/internal/faultinject"
	"uhm/internal/router"
	"uhm/internal/service"
	"uhm/internal/wire"
)

// newTestServerFromHandler serves an already-configured handler (tests that
// tweak server fields like requestTimeout before serving).
func newTestServerFromHandler(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// activateFaults installs a fault plan for the duration of the test.
func activateFaults(t *testing.T, seed int64, spec string) {
	t.Helper()
	plan, err := faultinject.ParseSpec(seed, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Activate(plan))
}

// TestRequestIDEchoed: a client-supplied X-Request-ID comes back on the
// response header and inside the JSON error body.
func TestRequestIDEchoed(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(`{"workload":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("X-Request-ID header = %q, want the echoed client ID", got)
	}
	var e wire.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "trace-me-42" {
		t.Fatalf("error body request_id = %q, want trace-me-42 (body error: %s)", e.RequestID, e.Error)
	}
}

// TestRequestIDGenerated: with no client header, the server mints an ID and
// attaches it to both the header and the error body.
func TestRequestIDGenerated(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"workload":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID generated")
	}
	var e wire.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != id {
		t.Fatalf("error body request_id = %q, header = %q; want them equal", e.RequestID, id)
	}
}

// TestOverloadReturns503WithRetryAfter saturates a one-worker server (the
// lone slot is wedged by a delay fault) and asserts the next request is shed
// within the queue timeout as a structured 503 carrying Retry-After.
func TestOverloadReturns503WithRetryAfter(t *testing.T) {
	activateFaults(t, 1, "service/run:p=1,count=1,mode=delay,delay=1500ms")
	ts, svc := newTestServer(t, service.Options{
		Workers:      1,
		QueueTimeout: 200 * time.Millisecond,
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Wedges the only slot for the delay duration; its own outcome is
		// irrelevant here.
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"workload":"fib"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(300 * time.Millisecond) // let the wedger take the slot

	start := time.Now()
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(`{"workload":"fib"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "shed-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waited := time.Since(start)
	wg.Wait()

	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	retryAfter := resp.Header.Get("Retry-After")
	if retryAfter == "" {
		t.Fatal("503 without a Retry-After header")
	}
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", retryAfter)
	}
	// Shed must happen promptly — around the queue timeout, nowhere near the
	// wedged request's duration.
	if waited > time.Second {
		t.Fatalf("shed took %s, want roughly the 200ms queue timeout", waited)
	}
	var e wire.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "shed-me" {
		t.Fatalf("503 body request_id = %q, want shed-me", e.RequestID)
	}
	if st := svc.Stats(); st.Requests.Overloads != 1 {
		t.Fatalf("Overloads = %d, want 1", st.Requests.Overloads)
	}
}

// TestRunPanicIsolatedAndQuarantined: an injected run panic answers as a
// structured 500 (with a request ID), quarantines the artifact so the retry
// is a deterministic 422, and leaves the server fully alive.
func TestRunPanicIsolatedAndQuarantined(t *testing.T) {
	activateFaults(t, 1, "service/run:p=1,count=1,mode=panic")
	ts, svc := newTestServer(t, service.Options{})

	status, data := postJSON(t, ts.URL+"/v1/run", `{"workload":"sieve"}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking run answered %d, want 500: %s", status, data)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID == "" {
		t.Fatalf("500 body carries no request_id: %s", data)
	}

	// The poisoned artifact is refused deterministically until an operator
	// intervenes; the fault has burnt its count, so this is the quarantine
	// answering, not a second panic.
	status, data = postJSON(t, ts.URL+"/v1/run", `{"workload":"sieve"}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined retry answered %d, want 422: %s", status, data)
	}
	if !strings.Contains(string(data), "quarantined") {
		t.Fatalf("retry error does not mention quarantine: %s", data)
	}

	st := svc.Stats()
	if st.Requests.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Requests.Panics)
	}
	if st.Registry.Quarantines != 1 || st.Registry.Quarantined != 1 {
		t.Fatalf("registry quarantine books = %+v, want exactly one", st.Registry)
	}
	if st.Pool.Leased != 0 {
		t.Fatalf("replayer leaked across the panic: %+v", st.Pool)
	}

	// Other programs are untouched, and the listener survived.
	if status, data := postJSON(t, ts.URL+"/v1/run", `{"workload":"fib"}`); status != http.StatusOK {
		t.Fatalf("unrelated program answered %d after the panic: %s", status, data)
	}
}

// TestDecodeFaultIsBadRequest: an injected decode failure surfaces as a
// normal 400, exercising the uhmd/decode site end to end.
func TestDecodeFaultIsBadRequest(t *testing.T) {
	activateFaults(t, 1, "uhmd/decode:p=1,count=1")
	ts, _ := newTestServer(t, service.Options{})
	status, data := postJSON(t, ts.URL+"/v1/run", `{"workload":"fib"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, data)
	}
	if !strings.Contains(string(data), "malformed request body") {
		t.Fatalf("unexpected error body: %s", data)
	}
	// The fault's count is spent; the same request now succeeds.
	if status, data := postJSON(t, ts.URL+"/v1/run", `{"workload":"fib"}`); status != http.StatusOK {
		t.Fatalf("retry status %d: %s", status, data)
	}
}

// TestRequestTimeoutCancelsWork: a per-request deadline propagates into the
// service and cancels a long-running request as a 503.  An injected delay
// wedges the first strategy of a comparison past the deadline, so the
// between-strategy context check — the cancellation point of the compare
// path — must fire deterministically.
func TestRequestTimeoutCancelsWork(t *testing.T) {
	activateFaults(t, 1, "service/run:p=1,count=1,mode=delay,delay=300ms")
	svc := service.New(service.Options{})
	h := newServer(svc)
	h.requestTimeout = 50 * time.Millisecond
	ts := newTestServerFromHandler(t, h)

	status, data := postJSON(t, ts.URL+"/v1/compare", `{"workload":"fib"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request answered %d, want 503: %s", status, data)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.RequestID == "" {
		t.Fatalf("timed-out request body lacks a request_id: %s", data)
	}
}

// newGuardedFleet serves one uhmd and a router in front of it, each behind
// the body stall guard run installs, with the stall bound shortened to stall.
// It returns the uhmd's and the router's base URLs.
func newGuardedFleet(t *testing.T, stall time.Duration) (backendURL, routerURL string) {
	t.Helper()
	backend := newTestServerFromHandler(t, stallGuard(newServer(service.New(service.Options{})), stall))
	rt := router.New(router.Options{Backends: []string{backend.URL}, Logf: t.Logf})
	rt.Start()
	t.Cleanup(rt.Close)
	front := newTestServerFromHandler(t, stallGuard(rt, stall))
	return backend.URL, front.URL
}

// TestStalledBodyIsRefused: a client that sends its headers and the start of
// its body and then stalls is answered once the stall bound passes, on one
// uhmd and through the router, instead of holding its connection and
// goroutine until it hangs up.  A handler that reads the body refuses it
// (400); one that never reads it answers, and net/http's drain of the unread
// body is bounded too.
func TestStalledBodyIsRefused(t *testing.T) {
	const stall = 100 * time.Millisecond
	backendURL, routerURL := newGuardedFleet(t, stall)
	for _, tc := range []struct {
		name, url, request string
		want               int
	}{
		{"uhmd/run", backendURL, "POST /v1/run", http.StatusBadRequest},
		{"uhmd/unread", backendURL, "GET /v1/workloads", http.StatusOK},
		{"router/run", routerURL, "POST /v1/run", http.StatusBadRequest},
		{"router/unread", routerURL, "GET /v1/workloads", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", strings.TrimPrefix(tc.url, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			start := time.Now()
			if _, err := io.WriteString(conn, tc.request+" HTTP/1.1\r\nHost: uhmd\r\n"+
				"Content-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"workload\":"); err != nil {
				t.Fatal(err)
			}
			// The client now stalls; the server must answer without it.
			if err := conn.SetReadDeadline(start.Add(20 * stall)); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("no answer to a stalled body within %s: %v", 20*stall, err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("stalled body answered %d, want %d", resp.StatusCode, tc.want)
			}
			t.Logf("stalled body answered %d after %s (bound %s)", resp.StatusCode, time.Since(start), stall)
		})
	}
}

// TestSlowHandlerOutlivesStallBound: the stall bound covers reading the body,
// not serving it.  A complete body whose handler runs past the bound — an
// injected delay wedges the first strategy of a comparison, whose next
// strategy checks the request context — still answers 200, on one uhmd and
// through the router.  A deadline left armed after the body's EOF would fire
// in net/http's background read of the connection and cancel that context.
func TestSlowHandlerOutlivesStallBound(t *testing.T) {
	const stall = 50 * time.Millisecond
	backendURL, routerURL := newGuardedFleet(t, stall)
	for _, tc := range []struct{ name, url string }{{"uhmd", backendURL}, {"router", routerURL}} {
		t.Run(tc.name, func(t *testing.T) {
			activateFaults(t, 1, "service/run:p=1,count=1,mode=delay,delay=300ms")
			status, data := postJSON(t, tc.url+"/v1/compare", `{"workload":"fib"}`)
			if status != http.StatusOK {
				t.Fatalf("a handler slower than the stall bound answered %d, want 200: %s", status, data)
			}
		})
	}
}

// TestReadPastEOFLeavesDeadlineClear: once a body hits EOF, net/http reads
// the connection in the background, so a later Read, as a decoder checking
// for trailing data may make, must not arm the deadline again: it would
// fire in that background read and cancel the context of a handler that
// then outlives the stall bound.
func TestReadPastEOFLeavesDeadlineClear(t *testing.T) {
	const stall = 50 * time.Millisecond
	ts := newTestServerFromHandler(t, stallGuard(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			t.Error(err)
		}
		if n, err := r.Body.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Errorf("read past EOF = %d, %v; want 0, EOF", n, err)
		}
		select {
		case <-r.Context().Done():
			w.WriteHeader(http.StatusServiceUnavailable)
		case <-time.After(6 * stall):
		}
	}), stall))
	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(`{"workload":"fib"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answered %d: the handler's context was cancelled while it worked", resp.StatusCode)
	}
}

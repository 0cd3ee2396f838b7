package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"uhm/internal/service"
)

// stubBackend speaks just enough of the uhmd wire API to test routing:
// it records which programs it "built" (first sight of a distinct
// workload/source), answers batches per item, and can be made unhealthy or
// made to abort connections mid-request.
type stubBackend struct {
	ts *httptest.Server

	mu     sync.Mutex
	builds map[string]int // program identity -> times seen
	runs   int

	healthy bool
	abort   bool // abort every data connection (simulates a dying process)
	block   chan struct{}
	started chan struct{} // signalled when a data request enters the handler
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	sb := &stubBackend{builds: map[string]int{}, healthy: true}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		ok := sb.healthy
		sb.mu.Unlock()
		if !ok {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		sb.gate()
		var req struct{ Workload, Source string }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, `{"error":"malformed"}`, http.StatusBadRequest)
			return
		}
		item := sb.serveOne(req.Workload, req.Source)
		data, _ := json.Marshal(item)
		if item.Status != http.StatusOK {
			w.WriteHeader(item.Status)
		}
		_, _ = w.Write(data)
	})
	mux.HandleFunc("POST /batch/run", func(w http.ResponseWriter, r *http.Request) {
		sb.gate()
		var req struct {
			Items []struct{ Workload, Source string } `json:"items"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Items) == 0 {
			http.Error(w, `{"error":"malformed batch"}`, http.StatusBadRequest)
			return
		}
		resp := struct {
			Items  []stubItem `json:"items"`
			Failed int        `json:"failed"`
		}{}
		for _, it := range req.Items {
			item := sb.serveOne(it.Workload, it.Source)
			if item.Status != http.StatusOK {
				resp.Failed++
			}
			resp.Items = append(resp.Items, item)
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		var st service.Stats
		st.Registry.Builds = int64(len(sb.builds))
		st.Registry.Entries = len(sb.builds)
		st.Registry.Hits = int64(sb.runs - len(sb.builds))
		sb.mu.Unlock()
		_ = json.NewEncoder(w).Encode(struct {
			Workers int           `json:"workers"`
			Stats   service.Stats `json:"stats"`
		}{Workers: 2, Stats: st})
	})
	sb.ts = httptest.NewServer(mux)
	t.Cleanup(sb.ts.Close)
	return sb
}

type stubItem struct {
	Status int             `json:"status"`
	Report *map[string]any `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (sb *stubBackend) gate() {
	sb.mu.Lock()
	abort, block, started := sb.abort, sb.block, sb.started
	sb.mu.Unlock()
	if started != nil {
		select {
		case started <- struct{}{}:
		default:
		}
	}
	if block != nil {
		<-block
	}
	if abort {
		panic(http.ErrAbortHandler)
	}
}

func (sb *stubBackend) serveOne(workload, source string) stubItem {
	id := workload
	if id == "" {
		id = "src:" + source
	}
	if strings.Contains(source, "bad") || workload == "no-such" {
		return stubItem{Status: http.StatusUnprocessableEntity, Error: "bad program"}
	}
	sb.mu.Lock()
	sb.builds[id]++
	sb.runs++
	sb.mu.Unlock()
	rep := map[string]any{"program": id, "backend": sb.ts.URL}
	return stubItem{Status: http.StatusOK, Report: &rep}
}

func (sb *stubBackend) setHealthy(ok bool) {
	sb.mu.Lock()
	sb.healthy = ok
	sb.mu.Unlock()
}

func (sb *stubBackend) setAbort(ab bool) {
	sb.mu.Lock()
	sb.abort = ab
	sb.mu.Unlock()
}

func (sb *stubBackend) programs() map[string]int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make(map[string]int, len(sb.builds))
	for k, v := range sb.builds {
		out[k] = v
	}
	return out
}

func newTestRouter(t *testing.T, opts Options, backends ...*stubBackend) (*Router, *httptest.Server) {
	t.Helper()
	for _, sb := range backends {
		opts.Backends = append(opts.Backends, sb.ts.URL)
	}
	rt := New(opts)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, []byte(buf.String())
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// runBody builds a distinct source-program run request.
func runBody(i int) string {
	return fmt.Sprintf(`{"source":"program p%d; begin x := %d end."}`, i, i)
}

// TestRouterPlacesByKey: every distinct program lands on exactly one
// backend, and resending it lands on the same one — the fleet-wide
// single-build property.
func TestRouterPlacesByKey(t *testing.T) {
	b1, b2 := newStubBackend(t), newStubBackend(t)
	_, ts := newTestRouter(t, Options{}, b1, b2)

	const n = 40
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			status, body := postBody(t, ts.URL+"/v1/run", runBody(i))
			if status != http.StatusOK {
				t.Fatalf("run %d: status %d: %s", i, status, body)
			}
		}
	}
	p1, p2 := b1.programs(), b2.programs()
	if len(p1)+len(p2) != n {
		t.Fatalf("fleet built %d+%d distinct programs, want %d", len(p1), len(p2), n)
	}
	for id := range p1 {
		if _, dup := p2[id]; dup {
			t.Fatalf("program %s built on both backends", id)
		}
	}
	if len(p1) == 0 || len(p2) == 0 {
		t.Fatalf("placement degenerate: %d vs %d programs", len(p1), len(p2))
	}
}

// TestRouterRetriesDeadBackend: a backend that aborts its connections is
// ejected and its keys move to the survivor with no client-visible failure.
func TestRouterRetriesDeadBackend(t *testing.T) {
	b1, b2 := newStubBackend(t), newStubBackend(t)
	rt, ts := newTestRouter(t, Options{}, b1, b2)

	b1.setAbort(true)
	b1.setHealthy(false)
	for i := 0; i < 30; i++ {
		status, body := postBody(t, ts.URL+"/v1/run", runBody(i))
		if status != http.StatusOK {
			t.Fatalf("run %d failed through retry: %d %s", i, status, body)
		}
	}
	if got := len(b2.programs()); got != 30 {
		t.Fatalf("survivor served %d programs, want all 30", got)
	}
	healthy, unhealthy, ejections, _ := rt.health.view()
	if len(unhealthy) != 1 || len(healthy) != 1 || ejections == 0 {
		t.Fatalf("health after death: healthy=%v unhealthy=%v ejections=%d", healthy, unhealthy, ejections)
	}
}

// TestRouterProbeEjectsAndReadmits: the probe loop ejects a backend whose
// /healthz fails and readmits it — and only it — when it recovers.
func TestRouterProbeEjectsAndReadmits(t *testing.T) {
	b1, b2 := newStubBackend(t), newStubBackend(t)
	rt, _ := newTestRouter(t, Options{}, b1, b2)

	b1.setHealthy(false)
	rt.probeOnce()
	if rt.health.isHealthy(b1.ts.URL) || !rt.health.isHealthy(b2.ts.URL) {
		t.Fatal("probe did not eject exactly the failing backend")
	}

	b1.setHealthy(true)
	// Readmission waits out the backoff; the ejected backend must not come
	// back before it.
	rt.probeOnce()
	if rt.health.isHealthy(b1.ts.URL) {
		t.Fatal("backend readmitted before its backoff elapsed")
	}
	time.Sleep(initialBackoff + 50*time.Millisecond)
	rt.probeOnce()
	if !rt.health.isHealthy(b1.ts.URL) {
		t.Fatal("recovered backend not readmitted after backoff")
	}
}

// TestRouterFallbackWhenFleetDown: with every backend dead, requests are
// served by the local fallback handler instead of failing.
func TestRouterFallbackWhenFleetDown(t *testing.T) {
	b1 := newStubBackend(t)
	local := newStubBackend(t) // reuse the stub handler as the "local" node
	rt, ts := newTestRouter(t, Options{Fallback: local.ts.Config.Handler}, b1)

	b1.setAbort(true)
	b1.setHealthy(false)
	for i := 0; i < 5; i++ {
		status, body := postBody(t, ts.URL+"/v1/run", runBody(i))
		if status != http.StatusOK {
			t.Fatalf("fallback run %d: %d %s", i, status, body)
		}
	}
	if got := len(local.programs()); got != 5 {
		t.Fatalf("fallback served %d programs, want 5", got)
	}
	if rt.fallbacks.Load() != 5 {
		t.Fatalf("fallbacks counter = %d, want 5", rt.fallbacks.Load())
	}
}

// TestRouterNoFallback503: with the fleet down and no fallback, the router
// answers a structured 503 with Retry-After.
func TestRouterNoFallback503(t *testing.T) {
	b1 := newStubBackend(t)
	_, ts := newTestRouter(t, Options{}, b1)
	b1.setAbort(true)
	b1.setHealthy(false)

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(runBody(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("unstructured 503 body (err=%v)", err)
	}
}

// TestRouterInflightCap: a saturated backend sheds with 503 instead of
// queueing unboundedly or spilling onto the wrong backend.
func TestRouterInflightCap(t *testing.T) {
	b1 := newStubBackend(t)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	b1.mu.Lock()
	b1.block = release
	b1.started = entered
	b1.mu.Unlock()
	_, ts := newTestRouter(t, Options{MaxInflight: 1}, b1)

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(runBody(0)))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	// The first request is inside the backend handler, so the router's one
	// in-flight slot is definitely held.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the backend")
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(runBody(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request status %d, want 503 at the cap", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("cap 503 without Retry-After")
	}
	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("capped-out request finished %d after release", status)
	}
}

// TestRouterForwardsAnswerHeaders: an overloaded answer reaches the client
// with its Retry-After back-off hint and its X-Request-ID, whether a backend
// gave it or the local fallback did.
func TestRouterForwardsAnswerHeaders(t *testing.T) {
	overloaded := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("X-Request-ID", "answer-id")
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	})
	backend := httptest.NewServer(overloaded)
	t.Cleanup(backend.Close)
	proxied := httptest.NewServer(New(Options{Backends: []string{backend.URL}}))
	t.Cleanup(proxied.Close)

	dead := newStubBackend(t)
	dead.setAbort(true)
	_, fallback := newTestRouter(t, Options{Fallback: overloaded}, dead)

	for name, url := range map[string]string{"proxied": proxied.URL, "fallback": fallback.URL} {
		resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(runBody(0)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want the answer's 503", name, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "7" {
			t.Errorf("%s: Retry-After %q, want the answer's \"7\"", name, got)
		}
		if got := resp.Header.Get("X-Request-ID"); got != "answer-id" {
			t.Errorf("%s: X-Request-ID %q, want the answer's \"answer-id\"", name, got)
		}
	}
}

// TestRouterBatchSplitAndMerge: a batch spanning both backends comes back
// in order with per-item statuses, and each program is built exactly once
// fleet-wide.
func TestRouterBatchSplitAndMerge(t *testing.T) {
	b1, b2 := newStubBackend(t), newStubBackend(t)
	_, ts := newTestRouter(t, Options{}, b1, b2)

	var items []string
	for i := 0; i < 20; i++ {
		items = append(items, strings.TrimSpace(runBody(i)))
	}
	items = append(items, `{"source":"bad program"}`) // per-item failure
	body := `{"items":[` + strings.Join(items, ",") + `]}`

	status, data := postBody(t, ts.URL+"/batch/run", body)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, data)
	}
	var resp struct {
		Items []struct {
			Status int            `json:"status"`
			Report map[string]any `json:"report"`
			Error  string         `json:"error"`
		} `json:"items"`
		Failed int `json:"failed"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 21 || resp.Failed != 1 {
		t.Fatalf("items=%d failed=%d, want 21/1", len(resp.Items), resp.Failed)
	}
	for i := 0; i < 20; i++ {
		it := resp.Items[i]
		if it.Status != http.StatusOK {
			t.Fatalf("item %d: status %d (%s)", i, it.Status, it.Error)
		}
		want := fmt.Sprintf("src:program p%d; begin x := %d end.", i, i)
		if it.Report["program"] != want {
			t.Fatalf("item %d out of order: program %v, want %s", i, it.Report["program"], want)
		}
	}
	if resp.Items[20].Status != http.StatusUnprocessableEntity {
		t.Fatalf("bad item status %d, want 422", resp.Items[20].Status)
	}
	p1, p2 := b1.programs(), b2.programs()
	if len(p1) == 0 || len(p2) == 0 {
		t.Fatalf("batch not split: %d vs %d programs", len(p1), len(p2))
	}
	if len(p1)+len(p2) != 20 {
		t.Fatalf("fleet built %d programs from the batch, want 20", len(p1)+len(p2))
	}
}

// TestRouterBatchSurvivesBackendDeath: a backend dying mid-batch re-routes
// its sub-batch to the survivor; the client sees every item succeed.
func TestRouterBatchSurvivesBackendDeath(t *testing.T) {
	b1, b2 := newStubBackend(t), newStubBackend(t)
	_, ts := newTestRouter(t, Options{}, b1, b2)

	b1.setAbort(true) // still "healthy" per flag: death observed in-flight
	var items []string
	for i := 0; i < 20; i++ {
		items = append(items, strings.TrimSpace(runBody(i)))
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`
	status, data := postBody(t, ts.URL+"/batch/run", body)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, data)
	}
	var resp struct {
		Items []struct {
			Status int `json:"status"`
		} `json:"items"`
		Failed int `json:"failed"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 {
		t.Fatalf("batch lost %d items to a backend death: %s", resp.Failed, data)
	}
	for i, it := range resp.Items {
		if it.Status != http.StatusOK {
			t.Fatalf("item %d status %d after re-route", i, it.Status)
		}
	}
	if got := len(b2.programs()); got != 20 {
		t.Fatalf("survivor served %d programs, want all 20", got)
	}
}

// TestRouterStatsAggregation: /v1/stats sums backend registries into the
// fleet roll-up CI gates on.
func TestRouterStatsAggregation(t *testing.T) {
	b1, b2 := newStubBackend(t), newStubBackend(t)
	_, ts := newTestRouter(t, Options{}, b1, b2)

	for i := 0; i < 10; i++ {
		if status, body := postBody(t, ts.URL+"/v1/run", runBody(i)); status != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg struct {
		Fleet  FleetStats  `json:"fleet"`
		Router RouterStats `json:"router"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg.Fleet.Builds != 10 {
		t.Fatalf("fleet builds = %d, want 10", agg.Fleet.Builds)
	}
	if agg.Fleet.Reachable != 2 || agg.Fleet.Backends != 2 || agg.Fleet.Workers != 4 {
		t.Fatalf("fleet shape = %+v", agg.Fleet)
	}
	if agg.Router.Proxied != 10 || len(agg.Router.Healthy) != 2 {
		t.Fatalf("router counters = %+v", agg.Router)
	}
}

// TestRouterHealthzAlwaysUp: the router's own health endpoint answers even
// with the whole fleet dark (the router is alive; the fleet state is data).
func TestRouterHealthzAlwaysUp(t *testing.T) {
	b1 := newStubBackend(t)
	rt, ts := newTestRouter(t, Options{}, b1)
	b1.setHealthy(false)
	rt.probeOnce()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router healthz %d with fleet down", resp.StatusCode)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"uhm/internal/service"
	"uhm/internal/wire"
	"uhm/internal/workload"
)

func newTestServer(t *testing.T, opts service.Options) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(opts)
	ts := httptest.NewServer(newServer(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postJSON(t testing.TB, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getStats(t *testing.T, baseURL string) service.Stats {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Workers int           `json:"workers"`
		Stats   service.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Stats
}

// TestRunCacheHitVsMiss is the acceptance pin at the HTTP layer: the first
// request builds, the warmed repeat request does zero artifact rebuild work
// (Builds constant, registry hit) and replays on the pooled simulator (pool
// hit), with byte-identical output and cost.
func TestRunCacheHitVsMiss(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	body := `{"workload":"sieve","strategy":"dtb"}`

	status, data := postJSON(t, ts.URL+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", status, data)
	}
	var first wire.RunResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	st := getStats(t, ts.URL)
	if st.Registry.Builds != 1 || st.Registry.Misses != 1 {
		t.Fatalf("cold stats = %+v, want 1 build / 1 miss", st.Registry)
	}
	if st.Pool.Misses != 1 || st.Pool.Idle != 1 {
		t.Fatalf("cold pool = %+v, want 1 miss and the replayer parked idle", st.Pool)
	}

	status, data = postJSON(t, ts.URL+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("warm run: status %d: %s", status, data)
	}
	var second wire.RunResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	st = getStats(t, ts.URL)
	if st.Registry.Builds != 1 {
		t.Fatalf("warm request rebuilt the artifact: %+v", st.Registry)
	}
	if st.Registry.Hits == 0 {
		t.Fatalf("warm request missed the registry: %+v", st.Registry)
	}
	if st.Pool.Hits != 1 {
		t.Fatalf("warm request did not reuse the pooled replayer: %+v", st.Pool)
	}
	if !slices.Equal(first.Report.Output, second.Report.Output) ||
		first.Report.TotalCycles != second.Report.TotalCycles {
		t.Fatalf("warm report differs: %+v vs %+v", first.Report, second.Report)
	}
}

// TestRunSubmittedSourceContentAddressed: submitting the text of a built-in
// workload lands on the same registry entry as running it by name — content
// addressing does not care what the program is called.
func TestRunSubmittedSourceContentAddressed(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	src, err := workload.Source("fib")
	if err != nil {
		t.Fatal(err)
	}
	srcJSON, _ := json.Marshal(src)

	status, data := postJSON(t, ts.URL+"/v1/run", `{"workload":"fib","strategy":"cache"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var byName wire.RunResponse
	if err := json.Unmarshal(data, &byName); err != nil {
		t.Fatal(err)
	}

	status, data = postJSON(t, ts.URL+"/v1/run",
		fmt.Sprintf(`{"source":%s,"name":"my-program","strategy":"cache"}`, srcJSON))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var bySource wire.RunResponse
	if err := json.Unmarshal(data, &bySource); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(byName.Report.Output, bySource.Report.Output) {
		t.Fatalf("outputs differ: %v vs %v", byName.Report.Output, bySource.Report.Output)
	}
	st := getStats(t, ts.URL)
	if st.Registry.Builds != 1 {
		t.Fatalf("identical source built twice: %+v", st.Registry)
	}
}

// TestSingleflightConcurrentSubmissions: many clients submitting the same
// program at once produce exactly one build.
func TestSingleflightConcurrentSubmissions(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	src, err := workload.Source("loopsum")
	if err != nil {
		t.Fatal(err)
	}
	srcJSON, _ := json.Marshal(src)
	body := fmt.Sprintf(`{"source":%s,"strategy":"conventional"}`, srcJSON)

	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := getStats(t, ts.URL)
	if st.Registry.Builds != 1 {
		t.Fatalf("Builds = %d, want 1 (singleflight dedup under %d concurrent submissions)",
			st.Registry.Builds, clients)
	}
	if st.Registry.Hits != clients-1 {
		t.Fatalf("Hits = %d, want %d", st.Registry.Hits, clients-1)
	}
}

// TestCompareEndpoint: all five organisations agree through the server path.
func TestCompareEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	status, data := postJSON(t, ts.URL+"/v1/compare", `{"workload":"fib"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var resp wire.CompareResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Agree {
		t.Fatalf("strategies disagree: %s", resp.Error)
	}
	if len(resp.Reports) != 5 {
		t.Fatalf("got %d reports, want 5", len(resp.Reports))
	}
	for _, rep := range resp.Reports {
		if !slices.Equal(rep.Output, resp.Output) {
			t.Fatalf("%s output %v, want %v", rep.Strategy, rep.Output, resp.Output)
		}
		// The service hot path serves trace-derived reports; the trace is
		// recorded under the artifact's sync.Once on the cold request, so
		// even a comparison's first report is derived.
		if !rep.Derived {
			t.Fatalf("%s report not trace-derived", rep.Strategy)
		}
	}
}

// TestConformanceEndpointPinnedSeeds: the pinned regression seeds (the ones
// that once exposed a real evaluation-order bug) conform through the server.
func TestConformanceEndpointPinnedSeeds(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	for _, seed := range []int64{38, 48} {
		status, data := postJSON(t, ts.URL+"/v1/conformance", fmt.Sprintf(`{"seed":%d}`, seed))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, data)
		}
		var resp wire.ConformanceResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Conforms {
			t.Fatalf("seed %d diverges through the server path:\n%s",
				seed, strings.Join(resp.Divergences, "\n"))
		}
	}
}

// TestExperimentEndpoint: a named experiment renders through the registry-
// backed engine, and its workload builds land in the shared cache.
func TestExperimentEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	status, data := postJSON(t, ts.URL+"/v1/experiments", `{"name":"empirical","workload":"loopsum"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var resp wire.ExperimentResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "loopsum") {
		t.Fatalf("experiment text does not mention the workload:\n%s", resp.Text)
	}
	if st := getStats(t, ts.URL); st.Registry.Builds == 0 {
		t.Fatal("experiment did not build through the registry")
	}
}

// TestMalformedRequests walks the error surface: syntax, validation,
// routing and method errors all answer with the right status and a JSON
// error body.  A body is exactly one JSON value: data after it is a syntax
// error, whitespace is not.
func TestMalformedRequests(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"bad json", "POST", "/v1/run", `{"workload":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/run", `{"wrkload":"fib"}`, http.StatusBadRequest},
		{"second value", "POST", "/v1/run", `{"workload":"fib"}{"workload":"sieve"}`, http.StatusBadRequest},
		{"trailing number", "POST", "/v1/run", `{"workload":"fib"} 1`, http.StatusBadRequest},
		{"trailing brackets on batch", "POST", "/batch/run", `{"items":[{"workload":"fib"}]}]]]`, http.StatusBadRequest},
		{"trailing newline", "POST", "/v1/run", "{\"workload\":\"fib\"}\n", http.StatusOK},
		{"no program", "POST", "/v1/run", `{}`, http.StatusBadRequest},
		{"both programs", "POST", "/v1/run", `{"workload":"fib","source":"x"}`, http.StatusBadRequest},
		{"bad strategy", "POST", "/v1/run", `{"workload":"fib","strategy":"quantum"}`, http.StatusBadRequest},
		{"bad level", "POST", "/v1/run", `{"workload":"fib","level":"mem9"}`, http.StatusBadRequest},
		{"bad degree", "POST", "/v1/run", `{"workload":"fib","degree":"gzip"}`, http.StatusBadRequest},
		{"negative budget", "POST", "/v1/run", `{"workload":"fib","max_instructions":-1}`, http.StatusBadRequest},
		{"budget above server bound", "POST", "/v1/run", `{"workload":"fib","max_instructions":99999999999}`, http.StatusBadRequest},
		{"unknown workload", "POST", "/v1/run", `{"workload":"nope"}`, http.StatusUnprocessableEntity},
		{"unparsable source", "POST", "/v1/run", `{"source":"not minilang"}`, http.StatusUnprocessableEntity},
		{"strategy on compare", "POST", "/v1/compare", `{"workload":"fib","strategy":"dtb"}`, http.StatusBadRequest},
		{"conformance empty", "POST", "/v1/conformance", `{}`, http.StatusBadRequest},
		{"conformance both", "POST", "/v1/conformance", `{"source":"x","seed":1}`, http.StatusBadRequest},
		{"unknown experiment", "POST", "/v1/experiments", `{"name":"figure9"}`, http.StatusBadRequest},
		{"get on run", "GET", "/v1/run", ``, http.StatusMethodNotAllowed},
		{"post on stats", "POST", "/v1/stats", `{}`, http.StatusMethodNotAllowed},
		{"unknown path", "GET", "/v1/nope", ``, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				data, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
		})
	}
}

// TestRunUnprocessableIsErrorJSON: failures carry a JSON error payload.
func TestRunUnprocessableIsErrorJSON(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	status, data := postJSON(t, ts.URL+"/v1/run", `{"workload":"nope"}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", status, data)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("want an error payload, got %s", data)
	}
}

// TestGracefulShutdownMidRequest: a request in flight when Shutdown is
// called runs to completion and is answered before the server exits.
func TestGracefulShutdownMidRequest(t *testing.T) {
	svc := service.New(service.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newServer(svc)}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// A genuinely slow request: the full conformance cross-product.
	type result struct {
		status int
		body   []byte
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/conformance",
			"application/json", bytes.NewReader([]byte(`{"seed":38}`)))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		resCh <- result{status: resp.StatusCode, body: data}
	}()

	// Give the request time to be admitted, then shut down underneath it.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request answered %d: %s", res.status, res.body)
	}
	var resp wire.ConformanceResponse
	if err := json.Unmarshal(res.body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Conforms {
		t.Fatalf("drained request returned divergences: %v", resp.Divergences)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// After shutdown, new connections are refused.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestHealthAndWorkloads covers the two trivial read endpoints.
func TestHealthAndWorkloads(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out["workloads"]) == 0 {
		t.Fatal("no workloads listed")
	}
}

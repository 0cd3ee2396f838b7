package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"uhm/internal/service"
	"uhm/internal/wire"
	"uhm/internal/workload"
)

// TestBatchRunEndpoint: many runs, one envelope — per-item reports in
// request order, one build per unique program, one admission for the batch.
func TestBatchRunEndpoint(t *testing.T) {
	ts, svc := newTestServer(t, service.Options{})
	body := `{"items":[
		{"workload":"fib","strategy":"dtb"},
		{"workload":"sieve","strategy":"dtb"},
		{"workload":"fib","strategy":"compiled"},
		{"workload":"fib","strategy":"dtb"}
	]}`
	status, data := postJSON(t, ts.URL+"/batch/run", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var resp wire.BatchRunResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 || resp.Failed != 0 {
		t.Fatalf("items = %d failed = %d, want 4 / 0", len(resp.Items), resp.Failed)
	}
	for i, item := range resp.Items {
		if item.Status != http.StatusOK || item.Report == nil {
			t.Fatalf("item %d = %+v, want 200 with a report", i, item)
		}
	}
	if resp.Items[0].Report.Program != "fib" || resp.Items[1].Report.Program != "sieve" {
		t.Fatalf("batch items answered out of order: %s, %s",
			resp.Items[0].Report.Program, resp.Items[1].Report.Program)
	}
	if !slices.Equal(resp.Items[0].Report.Output, resp.Items[2].Report.Output) ||
		!slices.Equal(resp.Items[0].Report.Output, resp.Items[3].Report.Output) {
		t.Fatal("same program diverged across batch items")
	}
	st := svc.Stats()
	if st.Registry.Builds != 2 {
		t.Fatalf("batch built %d artifacts, want 2 (fib, sieve)", st.Registry.Builds)
	}
}

// TestBatchRunPartialFailure: a bad item answers its own status; siblings
// and the envelope succeed.  This is the batch contract the router's
// splitter relies on.
func TestBatchRunPartialFailure(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	body := `{"items":[
		{"workload":"fib"},
		{"workload":"no-such-workload"},
		{"source":"not minilang"},
		{"workload":"fib","strategy":"quantum"},
		{"workload":"sieve"}
	]}`
	status, data := postJSON(t, ts.URL+"/batch/run", body)
	if status != http.StatusOK {
		t.Fatalf("envelope status %d, want 200: %s", status, data)
	}
	var resp wire.BatchRunResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	want := []int{200, 422, 422, 400, 200}
	if len(resp.Items) != len(want) {
		t.Fatalf("items = %d, want %d", len(resp.Items), len(want))
	}
	for i, item := range resp.Items {
		if item.Status != want[i] {
			t.Fatalf("item %d status = %d (%s), want %d", i, item.Status, item.Error, want[i])
		}
		if (item.Status == http.StatusOK) != (item.Report != nil) {
			t.Fatalf("item %d: report presence does not match status %d", i, item.Status)
		}
		if item.Status != http.StatusOK && item.Error == "" {
			t.Fatalf("item %d failed without an error message", i)
		}
	}
	if resp.Failed != 3 {
		t.Fatalf("failed = %d, want 3", resp.Failed)
	}
}

// TestBatchCompareEndpoint: compare items carry the full per-strategy report
// set and the equivalence verdict; a per-item strategy is refused per item.
func TestBatchCompareEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	body := `{"items":[
		{"workload":"fib"},
		{"workload":"fib","strategy":"dtb"}
	]}`
	status, data := postJSON(t, ts.URL+"/batch/compare", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var resp wire.BatchCompareResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 2 || resp.Failed != 1 {
		t.Fatalf("items = %d failed = %d, want 2 / 1", len(resp.Items), resp.Failed)
	}
	good := resp.Items[0]
	if good.Status != http.StatusOK || !good.Agree || len(good.Reports) != 5 {
		t.Fatalf("compare item = %+v, want 200, agree, 5 reports", good)
	}
	for _, rep := range good.Reports {
		if !slices.Equal(rep.Output, good.Output) {
			t.Fatalf("%s output %v, want %v", rep.Strategy, rep.Output, good.Output)
		}
	}
	if bad := resp.Items[1]; bad.Status != http.StatusBadRequest ||
		!strings.Contains(bad.Error, "strategy") {
		t.Fatalf("strategy-carrying compare item = %+v, want per-item 400", bad)
	}
}

// TestBatchEnvelopeValidation: empty and oversized envelopes are
// whole-request errors, not per-item ones.
func TestBatchEnvelopeValidation(t *testing.T) {
	ts, _ := newTestServer(t, service.Options{})
	status, data := postJSON(t, ts.URL+"/batch/run", `{"items":[]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", status, data)
	}
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"workload":"fib"}`)
	}
	sb.WriteString(`]}`)
	status, data = postJSON(t, ts.URL+"/batch/run", sb.String())
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d: %s", status, data)
	}
	if !bytes.Contains(data, []byte("above the server bound")) {
		t.Fatalf("oversized batch error does not name the bound: %s", data)
	}
}

// nullResponseWriter discards the response; the alloc pin must measure the
// handler path, not a recorder's buffer growth.
type nullResponseWriter struct{ h http.Header }

func (w nullResponseWriter) Header() http.Header         { return w.h }
func (w nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nullResponseWriter) WriteHeader(int)             {}

// warmRunAllocs measures the allocations of one warm /v1/run through the
// handler (decode, validate, pooled service run, pooled response encode)
// once the artifact is built, its trace recorded, its replayer pooled with a
// held report, and the encoder pool filled, and fails if they exceed pinned.
// The race detector's sync.Pool drops pooled objects at random, so under it
// the path runs but the count is only logged.
func warmRunAllocs(t *testing.T, body []byte, pinned float64) {
	t.Helper()
	s := newServer(service.New(service.Options{}))
	serve := func(w http.ResponseWriter) {
		s.mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	}
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		serve(rec)
		if rec.Code != http.StatusOK {
			t.Fatalf("warm-up /v1/run answered %d: %s", rec.Code, rec.Body)
		}
	}
	allocs := testing.AllocsPerRun(200, func() { serve(nullResponseWriter{h: make(http.Header)}) })
	t.Logf("warm /v1/run handler path: %.1f allocs/op (pinned %.0f)", allocs, pinned)
	if allocs > pinned && !raceEnabled {
		t.Fatalf("warm /v1/run handler path costs %.1f allocs/op, above the pinned %.0f", allocs, pinned)
	}
}

// TestWarmRunHandlerAllocs pins the exact per-request allocations of the warm
// single-run handler path for a built-in workload, so that any allocation a
// change adds to the handler envelope or the service hot path fails here.
func TestWarmRunHandlerAllocs(t *testing.T) {
	warmRunAllocs(t, []byte(`{"workload":"fib","strategy":"dtb"}`), 34)
}

// TestWarmGeneratedRunHandlerAllocs pins the same path for the request a
// generated workload sends: the program's MiniLang source in the body, a
// kernel-archetype program of a few thousand instructions, so that decoding
// the source, hashing it and resolving it by content are all measured.
func TestWarmGeneratedRunHandlerAllocs(t *testing.T) {
	g, err := workload.GenerateArchetype("kernel", 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.OracleSteps < 2000 || g.OracleSteps > 8000 {
		t.Fatalf("kernel seed 6 runs %d oracle steps, outside the 2,000..8,000 served band", g.OracleSteps)
	}
	body, err := json.Marshal(wire.RunRequest{Name: g.Name, Source: g.Source, Strategy: "dtb"})
	if err != nil {
		t.Fatal(err)
	}
	warmRunAllocs(t, body, 39)
}

// TestBatchAmortisesAllocs: per-run allocations through /batch/run at batch
// size 16 must come in under the single-request handler path — the measured
// form of the batch amortisation claim at the API boundary.
func TestBatchAmortisesAllocs(t *testing.T) {
	svc := service.New(service.Options{})
	s := newServer(svc)
	single := []byte(`{"workload":"fib","strategy":"dtb"}`)
	const batchN = 16
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i < batchN; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"workload":"fib","strategy":"dtb"}`)
	}
	sb.WriteString(`]}`)
	batch := []byte(sb.String())

	serve := func(path string, body []byte) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := nullResponseWriter{h: make(http.Header)}
		s.mux.ServeHTTP(w, req)
	}
	for i := 0; i < 5; i++ {
		serve("/v1/run", single)
		serve("/batch/run", batch)
	}
	singleAllocs := testing.AllocsPerRun(100, func() { serve("/v1/run", single) })
	batchAllocs := testing.AllocsPerRun(100, func() { serve("/batch/run", batch) })
	perRun := batchAllocs / batchN
	t.Logf("single = %.1f allocs/req, batch(%d) = %.1f allocs/req -> %.2f allocs/run",
		singleAllocs, batchN, batchAllocs, perRun)
	if perRun >= singleAllocs {
		t.Fatalf("batch path does not amortise: %.2f allocs/run vs %.1f single", perRun, singleAllocs)
	}
}

// TestWriteJSONPoolRecycle: wire.WriteJSON answers identical bytes when the
// buffer comes from the pool warm, and sets an exact Content-Length.
func TestWriteJSONPoolRecycle(t *testing.T) {
	var first, second *httptest.ResponseRecorder
	for i, rec := range []**httptest.ResponseRecorder{&first, &second} {
		*rec = httptest.NewRecorder()
		wire.WriteJSON(*rec, http.StatusOK, map[string]any{"seq": "same", "i": 1})
		_ = i
	}
	if first.Body.String() != second.Body.String() {
		t.Fatalf("pooled encoder changed the wire bytes:\n%q\n%q", first.Body, second.Body)
	}
	if cl := second.Header().Get("Content-Length"); cl != fmt.Sprint(second.Body.Len()) {
		t.Fatalf("Content-Length %q, body %d bytes", cl, second.Body.Len())
	}
}

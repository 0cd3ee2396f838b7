package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uhm/internal/service"
	"uhm/internal/wire"
)

// benchServer builds a warm in-process server: the fib artifact is built,
// its replayer pooled, and the response-buffer pool filled, so the
// benchmarks below measure the steady-state handler path.
func benchServer(b *testing.B) *server {
	b.Helper()
	s := newServer(service.New(service.Options{}))
	warm := []byte(`{"workload":"fib","strategy":"dtb"}`)
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(warm))
		s.mux.ServeHTTP(nullResponseWriter{h: make(http.Header)}, req)
	}
	return s
}

// BenchmarkHTTPServeRun is the warm single-request HTTP baseline: one
// decode, one admission, one pooled run, one pooled response encode per op.
func BenchmarkHTTPServeRun(b *testing.B) {
	s := benchServer(b)
	body := []byte(`{"workload":"fib","strategy":"dtb"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		s.mux.ServeHTTP(nullResponseWriter{h: make(http.Header)}, req)
	}
}

// BenchmarkHTTPServeBatch measures the same warm run through /batch/run at
// batch size 16; ns/op is per RUN (b.N counts runs, not envelopes), so this
// number against BenchmarkHTTPServeRun is the measured HTTP-layer
// amortisation of batching.
func BenchmarkHTTPServeBatch(b *testing.B) {
	s := benchServer(b)
	const batchSize = 16
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i < batchSize; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"workload":"fib","strategy":"dtb"}`)
	}
	sb.WriteString(`]}`)
	body := []byte(sb.String())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		req := httptest.NewRequest(http.MethodPost, "/batch/run", bytes.NewReader(body))
		s.mux.ServeHTTP(nullResponseWriter{h: make(http.Header)}, req)
	}
}

// BenchmarkRouterBatch is the fleet's batch path end to end: a closed loop of
// /batch/run envelopes of 8 generated programs (about 28 KB) through an
// in-process router to two uhmd backends, every program already built and
// its replayers pooled.  ns/op and allocs/op are per batch, router, backends
// and client together.
func BenchmarkRouterBatch(b *testing.B) {
	// Every backend request is access-logged; keep the output parseable.
	prev := log.Writer()
	log.SetOutput(io.Discard)
	b.Cleanup(func() { log.SetOutput(prev) })
	front, _, _ := newTestFleet(b, 2)
	items := make([]string, 0, 8)
	for _, g := range generatedPrograms(b, 8) {
		item, err := json.Marshal(wire.RunRequest{Source: g.Source, Name: g.Name, Strategy: "dtb"})
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, string(item))
	}
	body := []byte(`{"items":[` + strings.Join(items, ",") + `]}`)
	post := func() {
		resp, err := http.Post(front.URL+"/batch/run", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out wire.BatchRunResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || out.Failed != 0 || len(out.Items) != len(items) {
			b.Fatalf("batch: status %d, %d items, %d failed, %v", resp.StatusCode, len(out.Items), out.Failed, err)
		}
	}
	for range 3 {
		post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		post()
	}
}

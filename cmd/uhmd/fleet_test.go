package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uhm/internal/router"
	"uhm/internal/service"
	"uhm/internal/wire"
)

// newTestFleet assembles a real in-process fleet: n service-backed uhmd
// handlers behind a router, plus a local fallback service.  This is the
// integration twin of the CI multi-backend smoke.
func newTestFleet(t *testing.T, n int) (*httptest.Server, []*service.Service, *router.Router) {
	t.Helper()
	var addrs []string
	var svcs []*service.Service
	for i := 0; i < n; i++ {
		svc := service.New(service.Options{})
		backend := httptest.NewServer(newServer(svc))
		t.Cleanup(backend.Close)
		addrs = append(addrs, backend.URL)
		svcs = append(svcs, svc)
	}
	fallback := service.New(service.Options{})
	rt := router.New(router.Options{
		Backends: addrs,
		Fallback: newServer(fallback),
		Logf:     t.Logf,
	})
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	return front, svcs, rt
}

// TestFleetSingleBuildInvariant: through the router, every distinct program
// is built on exactly one backend, however many times and from however many
// clients it is requested — the fleet-wide form of the registry's
// build-once guarantee.
func TestFleetSingleBuildInvariant(t *testing.T) {
	front, svcs, _ := newTestFleet(t, 2)

	const programs = 12
	for round := 0; round < 3; round++ {
		for i := 0; i < programs; i++ {
			body := fmt.Sprintf(`{"source":"program p%d; var x; begin x := %d; print x end.","strategy":"dtb"}`, i, i)
			status, data := postJSON(t, front.URL+"/v1/run", body)
			if status != http.StatusOK {
				t.Fatalf("round %d run %d: status %d: %s", round, i, status, data)
			}
		}
	}

	var totalBuilds int64
	for i, svc := range svcs {
		st := svc.Stats()
		if st.Registry.BuildErrors != 0 {
			t.Fatalf("backend %d build errors: %+v", i, st.Registry)
		}
		totalBuilds += st.Registry.Builds
	}
	if totalBuilds != programs {
		t.Fatalf("fleet built %d artifacts for %d distinct programs", totalBuilds, programs)
	}
	// Both backends took a share (the ring actually split the key space).
	for i, svc := range svcs {
		if svc.Stats().Registry.Builds == 0 {
			t.Fatalf("backend %d built nothing — placement degenerate", i)
		}
	}
}

// TestFleetBatchThroughRouter: a batch spanning the key space splits across
// real backends and merges losslessly, preserving the single-build
// invariant and per-item error isolation.
func TestFleetBatchThroughRouter(t *testing.T) {
	front, svcs, _ := newTestFleet(t, 2)

	var items []string
	const good = 10
	for i := 0; i < good; i++ {
		items = append(items, fmt.Sprintf(`{"source":"program b%d; var y; begin y := %d; print y end.","strategy":"dtb"}`, i, i))
	}
	items = append(items, `{"source":"this is not minilang"}`)
	body := `{"items":[` + strings.Join(items, ",") + `]}`

	status, data := postJSON(t, front.URL+"/batch/run", body)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, data)
	}
	var resp wire.BatchRunResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != good+1 || resp.Failed != 1 {
		t.Fatalf("items=%d failed=%d, want %d/1", len(resp.Items), resp.Failed, good+1)
	}
	for i := 0; i < good; i++ {
		if resp.Items[i].Status != http.StatusOK || resp.Items[i].Report == nil {
			t.Fatalf("item %d: %+v", i, resp.Items[i])
		}
		if got := resp.Items[i].Report.Program; got != "submitted" {
			t.Fatalf("item %d program label %q, want submitted", i, got)
		}
	}
	if resp.Items[good].Status != http.StatusUnprocessableEntity {
		t.Fatalf("bad item status %d, want 422", resp.Items[good].Status)
	}
	// Builds counts started builds, including the bad item's failed one;
	// successful builds are what the single-build invariant bounds.
	var succeeded int64
	for _, svc := range svcs {
		st := svc.Stats()
		succeeded += st.Registry.Builds - st.Registry.BuildErrors
	}
	if succeeded != good {
		t.Fatalf("fleet completed %d builds from the batch, want %d", succeeded, good)
	}
}

// TestFleetStatsEndToEnd: the router's aggregated stats over real backends
// expose the fleet build count CI gates on.
func TestFleetStatsEndToEnd(t *testing.T) {
	front, _, _ := newTestFleet(t, 2)

	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"source":"program s%d; var z; begin z := %d; print z end."}`, i, i)
		if status, data := postJSON(t, front.URL+"/v1/run", body); status != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, status, data)
		}
	}
	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg struct {
		Fleet router.FleetStats `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg.Fleet.Builds != 6 {
		t.Fatalf("aggregated fleet builds = %d, want 6", agg.Fleet.Builds)
	}
	if agg.Fleet.Reachable != 2 {
		t.Fatalf("reachable = %d, want 2", agg.Fleet.Reachable)
	}
}

// TestFleetFallbackServesWhenBackendsDie: closing every backend mid-stream
// degrades to the local fallback service with zero failed requests.
func TestFleetFallbackServesWhenBackendsDie(t *testing.T) {
	svc := service.New(service.Options{})
	backend := httptest.NewServer(newServer(svc))
	fallback := service.New(service.Options{})
	rt := router.New(router.Options{
		Backends: []string{backend.URL},
		Fallback: newServer(fallback),
		Logf:     t.Logf,
	})
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	if status, data := postJSON(t, front.URL+"/v1/run", `{"workload":"fib"}`); status != http.StatusOK {
		t.Fatalf("pre-death run: %d %s", status, data)
	}
	backend.Close()
	for i := 0; i < 5; i++ {
		if status, data := postJSON(t, front.URL+"/v1/run", `{"workload":"sieve"}`); status != http.StatusOK {
			t.Fatalf("post-death run %d: %d %s", i, status, data)
		}
	}
	if fallback.Stats().Registry.Builds != 1 {
		t.Fatalf("fallback built %d artifacts, want 1 (sieve)", fallback.Stats().Registry.Builds)
	}
}

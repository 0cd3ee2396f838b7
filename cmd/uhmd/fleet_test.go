package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uhm/internal/core"
	"uhm/internal/router"
	"uhm/internal/service"
	"uhm/internal/wire"
)

// newTestFleet assembles a real in-process fleet: n service-backed uhmd
// handlers behind a router, plus a local fallback service.  This is the
// integration twin of the CI multi-backend smoke.
// It returns the router's front server, the backends' services and their
// addresses, index for index.
func newTestFleet(t testing.TB, n int) (*httptest.Server, []*service.Service, []string) {
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
	return front, svcs, addrs
}

// TestFleetSingleBuildInvariant: through the router, every distinct program
// is built exactly once, on the backend the ring places it on, however many
// times and from however many clients it is requested — the fleet-wide form
// of the registry's build-once guarantee.
func TestFleetSingleBuildInvariant(t *testing.T) {
	front, svcs, addrs := newTestFleet(t, 2)

	// httptest picks random ports and the ring hashes those addresses, so
	// predict each program's owner and add programs until every backend owns
	// at least one: the ring then splits the key space by construction.
	ring := router.NewRing(addrs, router.DefaultVnodes)
	owned := make(map[string]int64)
	var srcs []string
	for i := 0; i < 12 || len(owned) < len(addrs); i++ {
		src := fmt.Sprintf("program p%d; var x; begin x := %d; print x end.", i, i)
		srcs = append(srcs, src)
		owned[ring.Owners(service.KeyOf(src, core.LevelStack))[0]]++
	}
	for round := 0; round < 3; round++ {
		for i, src := range srcs {
			status, data := postJSON(t, front.URL+"/v1/run", `{"source":"`+src+`","strategy":"dtb"}`)
			if status != http.StatusOK {
				t.Fatalf("round %d run %d: status %d: %s", round, i, status, data)
			}
		}
	}

	for i, svc := range svcs {
		st := svc.Stats()
		if st.Registry.BuildErrors != 0 {
			t.Fatalf("backend %d build errors: %+v", i, st.Registry)
		}
		if want := owned[addrs[i]]; st.Registry.Builds != want {
			t.Fatalf("backend %d built %d artifacts; the ring places %d of the %d programs on it",
				i, st.Registry.Builds, want, len(srcs))
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
// expose the fleet-wide build count.
func TestFleetStatsEndToEnd(t *testing.T) {
	front, _, _ := newTestFleet(t, 2)

	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"source":"program s%d; var z; begin z := %d; print z end."}`, i, i)
		if status, data := postJSON(t, front.URL+"/v1/run", body); status != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, status, data)
		}
	}
	fleet, _ := fleetStats(t, front.URL)
	if fleet.Builds != 6 {
		t.Fatalf("aggregated fleet builds = %d, want 6", fleet.Builds)
	}
	if fleet.Reachable != 2 {
		t.Fatalf("reachable = %d, want 2", fleet.Reachable)
	}
}

// fleetStats reads the router's /v1/stats: the fleet roll-up and the
// router's own counters.
func fleetStats(t *testing.T, frontURL string) (router.FleetStats, router.RouterStats) {
	t.Helper()
	resp, err := http.Get(frontURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg struct {
		Fleet  router.FleetStats  `json:"fleet"`
		Router router.RouterStats `json:"router"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	return agg.Fleet, agg.Router
}

// TestFleetTrailingDataBuildsOnce: the router places a body it cannot parse
// by the hash of its bytes, so the backend it lands on must refuse a body
// with data after its JSON value.  Serving it would build the program again
// on a backend that does not own it.
func TestFleetTrailingDataBuildsOnce(t *testing.T) {
	front, _, _ := newTestFleet(t, 2)
	if status, data := postJSON(t, front.URL+"/v1/run", `{"workload":"fib"}`); status != http.StatusOK {
		t.Fatalf("fib: status %d: %s", status, data)
	}
	// The router cannot parse these, so their bytes' hashes spread them
	// over both backends, whichever owns fib.
	bodies := []string{`{"workload":"fib"}{"workload":"sieve"}`}
	for n := 1; n < 16; n++ {
		bodies = append(bodies, fmt.Sprintf(`{"workload":"fib"} %d`, n))
	}
	for _, body := range bodies {
		if status, data := postJSON(t, front.URL+"/v1/run", body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, status, data)
		}
	}
	if fleet, _ := fleetStats(t, front.URL); fleet.Builds != 1 {
		t.Fatalf("the fleet built fib %d times, want 1", fleet.Builds)
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

// holdSwitch wraps backends so that, once armed, the first run any of them
// receives is held in flight and never answered, as a request is when its
// process is SIGKILLed.  held names the backend holding it; closing dead
// lets the handler return after the backend is gone.
type holdSwitch struct {
	armed atomic.Bool
	held  chan int
	dead  chan struct{}
}

func (h *holdSwitch) wrap(i int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && h.armed.CompareAndSwap(true, false) {
			h.held <- i
			<-h.dead
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestFleetSurvivesBackendKill: a backend that dies under a closed loop of
// runs and batches, with a request in flight on it, costs no client request
// and no batch item.  The router retries what the dead backend held on its
// successor, every answer still matches the oracle, and once a probe cycle
// has passed the fleet reports one reachable backend.
func TestFleetSurvivesBackendKill(t *testing.T) {
	// Every backend request is access-logged; keep a failure's output short.
	prev := log.Writer()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(prev) })

	hold := &holdSwitch{held: make(chan int, 1), dead: make(chan struct{})}
	var backends []*httptest.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		b := httptest.NewServer(hold.wrap(i, newServer(service.New(service.Options{}))))
		t.Cleanup(b.Close)
		backends = append(backends, b)
		addrs = append(addrs, b.URL)
	}
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(hold.dead) }) })
	rt := router.New(router.Options{Backends: addrs, ProbeInterval: 10 * time.Millisecond, Logf: t.Logf})
	rt.Start()
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	progs := generatedPrograms(t, 24)
	runs := make([][]byte, len(progs))
	for k, g := range progs {
		body, err := json.Marshal(wire.RunRequest{Source: g.Source, Name: g.Name, Strategy: "dtb"})
		if err != nil {
			t.Fatal(err)
		}
		runs[k] = body
	}
	post := func(path string, body []byte, out any) error {
		resp, err := front.Client().Post(front.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, data)
		}
		return json.Unmarshal(data, out)
	}
	check := func(k int, rep *wire.Report) error {
		if rep == nil || !slices.Equal(rep.Output, progs[k].Output) {
			return fmt.Errorf("%s: answered %+v, want output %v", progs[k].Name, rep, progs[k].Output)
		}
		return nil
	}
	// request i is a run of one program when i is even and a batch of the
	// next 8 when it is odd.
	request := func(i int) error {
		k := i % len(progs)
		if i%2 == 0 {
			var out wire.RunResponse
			if err := post("/v1/run", runs[k], &out); err != nil {
				return err
			}
			return check(k, &out.Report)
		}
		items := make([][]byte, 8)
		for j := range items {
			items[j] = runs[(k+j)%len(progs)]
		}
		var out wire.BatchRunResponse
		if err := post("/batch/run", []byte(`{"items":[`+string(bytes.Join(items, []byte(",")))+`]}`), &out); err != nil {
			return err
		}
		if out.Failed != 0 || len(out.Items) != len(items) {
			return fmt.Errorf("batch at %d: %d items, %d failed", k, len(out.Items), out.Failed)
		}
		for j, it := range out.Items {
			if err := check((k+j)%len(progs), it.Report); err != nil {
				return fmt.Errorf("batch at %d, item %d (status %d): %w", k, j, it.Status, err)
			}
		}
		return nil
	}

	const clients = 4
	var stop atomic.Bool
	var answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; !stop.Load(); i += clients {
				if err := request(i); err != nil {
					t.Error(err)
					return
				}
				answered.Add(1)
			}
		}(c)
	}
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer halt()
	// await lets the load answer n more requests, each program's several
	// times over: before the kill every program is built on its owner,
	// after it the dead backend's programs are built on the survivor.
	await := func(n int64) {
		for until := answered.Load() + n; answered.Load() < until && !t.Failed(); {
			time.Sleep(time.Millisecond)
		}
	}

	await(4 * int64(len(progs)))
	if t.Failed() {
		return
	}
	hold.armed.Store(true)
	var victim int
	select {
	case victim = <-hold.held:
	case <-time.After(10 * time.Second):
		t.Fatal("no request reached a backend after the hold was armed")
	}
	// The kill as the router sees a SIGKILL: new connections are refused,
	// and open ones, the held request's among them, are reset.
	backends[victim].Listener.Close()
	backends[victim].CloseClientConnections()
	release.Do(func() { close(hold.dead) })
	await(4 * int64(len(progs)))
	halt()
	if t.Failed() {
		return
	}

	// The load after the kill spanned many probe cycles.
	fleet, rs := fleetStats(t, front.URL)
	t.Logf("%d requests answered; backend %d killed holding one; router retries %d, unhealthy %v",
		answered.Load(), victim, rs.Retries, rs.Unhealthy)
	if fleet.Reachable != 1 {
		t.Fatalf("after the kill the fleet reports %d reachable backends, want 1", fleet.Reachable)
	}
	if !slices.Equal(rs.Unhealthy, addrs[victim:victim+1]) || rs.Retries == 0 {
		t.Fatalf("router unhealthy %v after %d retries, want the killed %s after at least one",
			rs.Unhealthy, rs.Retries, addrs[victim])
	}
}

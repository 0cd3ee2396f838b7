package main

import (
	"encoding/json"
	"flag"
	"net/http"
	"slices"
	"testing"
	"time"

	"uhm/internal/service"
	"uhm/internal/store"
	"uhm/internal/wire"
)

// TestFlagParsing pins the flag surface, including the PR's -store-dir and
// -warm-start, against a private flag set.
func TestFlagParsing(t *testing.T) {
	parse := func(t *testing.T, args ...string) options {
		t.Helper()
		var opts options
		fs := flag.NewFlagSet("uhmd", flag.ContinueOnError)
		registerFlags(fs, &opts)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %q: %v", args, err)
		}
		return opts
	}

	opts := parse(t)
	if opts.addr != "localhost:8080" || opts.cacheBytes != 256<<20 ||
		opts.storeDir != "" || opts.warmStart != 0 {
		t.Fatalf("defaults = %+v", opts)
	}
	if err := opts.validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}

	opts = parse(t, "-store-dir", "/tmp/artifacts", "-warm-start", "-1",
		"-queue-timeout", "3s", "-workers", "4")
	if opts.storeDir != "/tmp/artifacts" || opts.warmStart != -1 ||
		opts.queueTimeout != 3*time.Second || opts.workers != 4 {
		t.Fatalf("parsed = %+v", opts)
	}
	if err := opts.validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}

	opts = parse(t, "-store-dir", "d", "-warm-start", "8")
	if err := opts.validate(); err != nil {
		t.Fatalf("bounded warm start rejected: %v", err)
	}

	opts = parse(t, "-warm-start", "5")
	if err := opts.validate(); err == nil {
		t.Fatal("-warm-start without -store-dir accepted")
	}
	opts = parse(t, "-store-dir", "d", "-warm-start", "-2")
	if err := opts.validate(); err == nil {
		t.Fatal("-warm-start -2 accepted")
	}

	// A backend listed twice is one backend, so the startup log counts it once.
	opts = parse(t, "-router", "-backends", "b:1, a:1,,b:1,")
	if got, want := opts.backendList(), []string{"a:1", "b:1"}; !slices.Equal(got, want) {
		t.Fatalf("backendList = %q, want %q", got, want)
	}
	if err := opts.validate(); err != nil {
		t.Fatalf("router options rejected: %v", err)
	}

	var opts2 options
	fs := flag.NewFlagSet("uhmd", flag.ContinueOnError)
	fs.SetOutput(discard{})
	registerFlags(fs, &opts2)
	if err := fs.Parse([]string{"-warm-start", "many"}); err == nil {
		t.Fatal("non-integer -warm-start accepted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestServerWarmRestart is the restart cycle at the HTTP layer: a server
// populates its store, "dies", and its replacement — warm-started from the
// same directory — answers the previous working set byte-identically with
// zero rebuilds.
func TestServerWarmRestart(t *testing.T) {
	dir := t.TempDir()
	open := func(t *testing.T) *store.Store {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	ts1, _ := newTestServer(t, service.Options{Store: open(t)})
	bodies := []string{
		`{"workload":"fib","strategy":"dtb"}`,
		`{"workload":"sieve","strategy":"cache"}`,
	}
	var want []wire.RunResponse
	for _, body := range bodies {
		// Twice each: the second request syncs the recorded trace into the
		// container, so the restarted server derives without re-executing.
		for i := 0; i < 2; i++ {
			status, data := postJSON(t, ts1.URL+"/v1/run", body)
			if status != http.StatusOK {
				t.Fatalf("first server: status %d: %s", status, data)
			}
			var resp wire.RunResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = append(want, resp)
			}
		}
	}
	ts1.Close()

	ts2, svc2 := newTestServer(t, service.Options{Store: open(t)})
	loaded, err := svc2.Warmstart(-1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != len(bodies) {
		t.Fatalf("warm start loaded %d artifacts, want %d", loaded, len(bodies))
	}
	for i, body := range bodies {
		status, data := postJSON(t, ts2.URL+"/v1/run", body)
		if status != http.StatusOK {
			t.Fatalf("restarted server: status %d: %s", status, data)
		}
		var resp wire.RunResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Report.SemanticCycles != want[i].Report.SemanticCycles ||
			resp.Report.Instructions != want[i].Report.Instructions {
			t.Fatalf("restarted run %d diverges: %+v vs %+v", i, resp.Report, want[i].Report)
		}
	}
	st := getStats(t, ts2.URL)
	if st.Registry.Builds != 0 {
		t.Fatalf("restarted server did %d rebuilds, want 0", st.Registry.Builds)
	}
	if st.Registry.WarmLoads != int64(len(bodies)) {
		t.Fatalf("restarted server stats = %+v, want %d warm loads", st.Registry, len(bodies))
	}
}

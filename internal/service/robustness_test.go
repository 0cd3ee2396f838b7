package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"uhm/internal/faultinject"
	"uhm/internal/sim"
	"uhm/internal/workload"
)

// TestQueueTimeoutReturnsOverloadError: with every slot held, admission gives
// up after the queue timeout with a typed *OverloadError carrying a
// whole-second Retry-After hint.
func TestQueueTimeoutReturnsOverloadError(t *testing.T) {
	svc := New(Options{Workers: 1, QueueTimeout: 50 * time.Millisecond})
	held := make(chan struct{})
	release := make(chan struct{})
	adminDone := make(chan error, 1)
	go func() {
		adminDone <- svc.AdmitExclusive(context.Background(), func(context.Context) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	start := time.Now()
	_, err := svc.Run(context.Background(), workloadReq("fib", testConfig()), sim.WithDTB)
	waited := time.Since(start)
	close(release)
	if err := <-adminDone; err != nil {
		t.Fatal(err)
	}

	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("saturated admission returned %v, want *OverloadError", err)
	}
	if overload.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %s, want at least a whole second", overload.RetryAfter)
	}
	if waited < 50*time.Millisecond || waited > 5*time.Second {
		t.Fatalf("admission waited %s, want roughly the 50ms queue timeout", waited)
	}
	if st := svc.Stats(); st.Requests.Overloads != 1 {
		t.Fatalf("Overloads = %d, want 1", st.Requests.Overloads)
	}
}

// TestRunPanicIsQuarantined: a panic on the request hot path is recovered at
// the service boundary as a typed *PanicError, the artifact becomes a poison
// pill (typed *QuarantineError on retry), and neither the request slot nor
// the replayer lease leaks.
func TestRunPanicIsQuarantined(t *testing.T) {
	defer faultinject.Activate(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteServiceRun, Probability: 1, Count: 1, Mode: faultinject.ModePanic,
	}))()
	svc := New(Options{Workers: 2})

	_, err := svc.Run(context.Background(), workloadReq("sieve", testConfig()), sim.WithDTB)
	var panicked *PanicError
	if !errors.As(err, &panicked) {
		t.Fatalf("panicking run returned %v, want *PanicError", err)
	}
	if _, ok := panicked.Value.(faultinject.InjectedPanic); !ok {
		t.Fatalf("recovered value %v, want the injected panic", panicked.Value)
	}

	_, err = svc.Run(context.Background(), workloadReq("sieve", testConfig()), sim.WithDTB)
	var quarantined *QuarantineError
	if !errors.As(err, &quarantined) {
		t.Fatalf("retry on the poisoned program returned %v, want *QuarantineError", err)
	}

	st := svc.Stats()
	if st.Requests.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Requests.Panics)
	}
	if st.Registry.Quarantines != 1 || st.Registry.Quarantined != 1 {
		t.Fatalf("quarantine books = %+v, want exactly one poison pill", st.Registry)
	}
	if st.Pool.Leased != 0 {
		t.Fatalf("lease leaked across the panic: %+v", st.Pool)
	}
	if err := svc.Pool().VerifyAccounting(); err != nil {
		t.Fatal(err)
	}

	// Unrelated programs are untouched.
	if _, err := svc.Run(context.Background(), workloadReq("fib", testConfig()), sim.WithDTB); err != nil {
		t.Fatalf("unrelated program failed after the quarantine: %v", err)
	}
}

// TestDeriveDeclineFallsBackToReplay: under a sustained derive-decline storm
// every request falls back to a full replay — correct reports, never marked
// derived — and each fallback is counted.  The storm declines a cold service
// whose replayers have never derived, and a warm one whose pooled replayer
// holds a derived report, since the fault site fires before the held report
// is consulted.  Once the storm lifts, requests are derived again.
func TestDeriveDeclineFallsBackToReplay(t *testing.T) {
	storm := func() (restore func()) {
		return faultinject.Activate(faultinject.NewPlan(1, faultinject.Rule{
			Site: faultinject.SiteDerive, Probability: 1,
		}))
	}
	run := func(t *testing.T, svc *Service) *sim.Report {
		t.Helper()
		rep, err := svc.Run(context.Background(), workloadReq("fib", testConfig()), sim.WithDTB)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// serveStorm sends 40 requests under the storm and checks each against
	// want and the fallback count.
	serveStorm := func(t *testing.T, svc *Service, want *sim.Report) {
		t.Helper()
		before := svc.Stats().Requests.DeriveFallbacks
		for i := 0; i < 40; i++ {
			rep := run(t, svc)
			if diff := sim.DiffReports(rep, want); diff != "" {
				t.Fatalf("request %d under the derive storm: %s", i, diff)
			}
			if rep.Derived {
				t.Fatalf("request %d reported a derived path while derivation always declines", i)
			}
		}
		if got := svc.Stats().Requests.DeriveFallbacks - before; got != 40 {
			t.Fatalf("DeriveFallbacks rose by %d, want one per request (40)", got)
		}
	}

	t.Run("cold", func(t *testing.T) {
		defer storm()()
		svc := New(Options{Workers: 1})
		want := run(t, svc)
		if want.Derived {
			t.Fatal("first request derived while derivation always declines")
		}
		serveStorm(t, svc, want)
	})

	t.Run("held", func(t *testing.T) {
		svc := New(Options{Workers: 1})
		run(t, svc)
		hits := svc.Stats().Pool.Hits
		want := run(t, svc)
		if !want.Derived || svc.Stats().Pool.Hits != hits+1 {
			t.Fatalf("second request: Derived %v, pool hits %d -> %d; want a derived pool hit",
				want.Derived, hits, svc.Stats().Pool.Hits)
		}
		restore := storm()
		defer restore()
		serveStorm(t, svc, want)
		restore()
		after := run(t, svc)
		if !after.Derived {
			t.Fatal("request after the storm was not derived")
		}
		if diff := sim.DiffReports(after, want); diff != "" {
			t.Fatalf("request after the storm diverges from the one before it: %s", diff)
		}
	})
}

// TestDrainWithBuildFailingMidSingleflight is the drain satellite: while one
// build is held open and failing, more requests for the same program pile
// onto the singleflight entry.  When the build finally fails, every waiter
// gets the error, the registry holds no phantom artifact, and — the fault
// being spent — the very next request builds and runs normally.
func TestDrainWithBuildFailingMidSingleflight(t *testing.T) {
	const waiters = 4
	src, err := workload.Source("fib")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	errBoom := errors.New("boom")
	defer faultinject.Activate(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteRegistryBuild, Probability: 1, Count: 1,
		Err:    errBoom,
		Before: func() { close(started); <-release },
	}))()
	svc := New(Options{Workers: waiters})

	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := svc.Run(context.Background(), sourceReq("boom", src, testConfig()), sim.WithDTB)
			errs <- err
		}()
	}
	<-started
	// The build is wedged mid-flight; wait for every other request to join
	// the singleflight entry (joining increments Hits before blocking).
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Registry.Hits < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never joined the in-flight build: %+v", svc.Stats().Registry)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	// Drain: every request must come back, each carrying the build error.
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errBoom) || !faultinject.Injected(err) {
				t.Fatalf("waiter returned %v, want the injected build error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("drain did not terminate: a waiter never returned")
		}
	}

	st := svc.Stats().Registry
	if st.Builds != 1 || st.BuildErrors != 1 {
		t.Fatalf("build books = %+v, want exactly one failed build", st)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("phantom artifact after the failed build: %d entries, %d bytes", st.Entries, st.Bytes)
	}
	if err := svc.Registry().VerifyAccounting(); err != nil {
		t.Fatal(err)
	}

	// Singleflight must retry after failure, not cache the error.
	if _, err := svc.Run(context.Background(), sourceReq("boom", src, testConfig()), sim.WithDTB); err != nil {
		t.Fatalf("retry after the failed build: %v", err)
	}
	if st := svc.Stats().Registry; st.Builds != 2 {
		t.Fatalf("retry did not rebuild: %+v", st)
	}
}

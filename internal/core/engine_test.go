package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func engineTestConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxInstructions = 5_000_000
	return cfg
}

// TestEngineParallelMatchesSerial renders every grid experiment under both
// engines and requires byte-identical reports.
func TestEngineParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	cfg := engineTestConfig()
	serial, parallel := Engine{Workers: 1}, Engine{Workers: 8}

	render := func(e Engine) map[string]string {
		out := make(map[string]string)
		for _, name := range []string{"figure1", "figure2", "empirical", "compaction"} {
			text, err := e.Experiment(ctx, name, ExperimentOptions{}, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = text
		}
		return out
	}

	want, got := render(serial), render(parallel)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", name, w, got[name])
		}
	}
}

// TestEngineConcurrentUse drives the engine from many goroutines at once —
// the race-detector coverage for the shared predecoded programs and the
// worker pool — and asserts every goroutine sees the serial engine's report.
func TestEngineConcurrentUse(t *testing.T) {
	ctx := context.Background()
	cfg := engineTestConfig()
	wantEmp, err := Engine{Workers: 1}.Empirical(ctx, []string{"loopsum", "fib"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRendered := RenderEmpirical(wantEmp)

	const goroutines = 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := Engine{}.Empirical(ctx, []string{"loopsum", "fib"}, cfg)
			if err != nil {
				errc <- fmt.Errorf("goroutine %d: %w", g, err)
				return
			}
			if rendered := RenderEmpirical(rows); rendered != wantRendered {
				errc <- fmt.Errorf("goroutine %d: empirical report diverged", g)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestEngineCancellation stops the sweep when the context is cancelled.
func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Engine{}).Figure1(ctx, nil, engineTestConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Figure1 on cancelled context: %v", err)
	}
}

// TestEngineErrorMatchesSerial requires the parallel engine to surface the
// same first error the serial engine would.
func TestEngineErrorMatchesSerial(t *testing.T) {
	ctx := context.Background()
	cfg := engineTestConfig()
	workloads := []string{"loopsum", "no-such-workload", "fib"}
	_, serialErr := Engine{Workers: 1}.Empirical(ctx, workloads, cfg)
	_, parallelErr := Engine{Workers: 8}.Empirical(ctx, workloads, cfg)
	if serialErr == nil || parallelErr == nil {
		t.Fatalf("expected errors, got serial=%v parallel=%v", serialErr, parallelErr)
	}
	if serialErr.Error() != parallelErr.Error() {
		t.Errorf("error mismatch:\nserial:   %v\nparallel: %v", serialErr, parallelErr)
	}
}

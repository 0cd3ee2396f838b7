package sim

import (
	"reflect"
	"runtime"
	"testing"

	"uhm/internal/compile"
	"uhm/internal/dir"
	"uhm/internal/workload"
)

// TestReplayerMatchesRunPredecoded holds replayed runs to the one-shot path:
// every Replay of a reused Replayer must produce a report identical to a
// fresh RunPredecoded of the same configuration, for every strategy and
// encoding degree.  This is what makes the zero-allocation reuse safe: a
// reset Replayer is observationally indistinguishable from a new one.
func TestReplayerMatchesRunPredecoded(t *testing.T) {
	for _, wl := range []string{"loopsum", "fib"} {
		p := workload.MustCompileAt(wl, compile.LevelStack)
		for _, degree := range dir.Degrees() {
			cfg := DefaultConfig()
			cfg.Degree = degree
			pp, err := Predecode(p, degree)
			if err != nil {
				t.Fatalf("%s/%v: %v", wl, degree, err)
			}
			for _, strategy := range Strategies() {
				rep, err := NewReplayer(pp, strategy, cfg)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", wl, degree, strategy, err)
				}
				want, err := RunPredecoded(pp, strategy, cfg)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", wl, degree, strategy, err)
				}
				for round := 0; round < 3; round++ {
					got, err := rep.Replay()
					if err != nil {
						t.Fatalf("%s/%v/%v round %d: %v", wl, degree, strategy, round, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%v/%v round %d: replayed report diverges\n got %+v\nwant %+v",
							wl, degree, strategy, round, got, want)
					}
				}
			}
		}
	}
}

// TestReplayAllocatesOnlyAtSetup asserts the tentpole property: once a
// Replayer is warm, a 50-round replay performs zero heap allocations, for
// every strategy.
func TestReplayAllocatesOnlyAtSetup(t *testing.T) {
	p := workload.MustCompileAt("loopsum", compile.LevelStack)
	cfg := DefaultConfig()
	pp, err := Predecode(p, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range Strategies() {
		rep, err := NewReplayer(pp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up: the first rounds grow stacks, frame pools and map tables
		// to their steady-state footprint.
		for i := 0; i < 2; i++ {
			if _, err := rep.Replay(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := rep.Replay(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state replay allocates %.1f objects per run, want 0", strategy, allocs)
		}
	}
}

// newReplayerBytes returns the heap NewReplayer allocates per call, averaged
// over eight replayers.
func newReplayerBytes(t *testing.T, pp *PredecodedProgram, strategy Strategy, cfg Config) int {
	t.Helper()
	const replayers = 8
	rs := make([]*Replayer, replayers)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range rs {
		var err error
		if rs[i], err = NewReplayer(pp, strategy, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rs)
	return int(after.TotalAlloc-before.TotalAlloc) / replayers
}

// TestNewReplayerFootprint bounds what building a Replayer allocates.  The
// memory hierarchy, DTB and cache model capacity and references, not
// contents, so a replayer of sieve stays a few KiB under every organisation
// although the default hierarchy has 8 MiB of level 2.  The figure is the
// heap allocated per NewReplayer, averaged over eight.
func TestNewReplayerFootprint(t *testing.T) {
	const bound = 64 << 10
	cfg := DefaultConfig()
	pp, err := Predecode(workload.MustCompileAt("sieve", compile.LevelStack), cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	// The compiled form belongs to the shared program, not to a replayer.
	if _, err := pp.Compiled(); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range Strategies() {
		if per := newReplayerBytes(t, pp, strategy, cfg); per >= bound {
			t.Errorf("%v: NewReplayer allocates %d B, want under %d B", strategy, per, bound)
		}
	}
}

// TestReplayerChargeMatchesAllocation pins the charge a parked Replayer adds
// to its program's footprint to what NewReplayer allocates, measured as
// TestNewReplayerFootprint measures it: within ±25% for every organisation
// on three workloads whose main frames differ (sieve's holds 131 slots).
func TestReplayerChargeMatchesAllocation(t *testing.T) {
	cfg := DefaultConfig()
	for _, wl := range []string{"sieve", "fib", "loopsum"} {
		pp, err := Predecode(workload.MustCompileAt(wl, compile.LevelStack), cfg.Degree)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pp.Compiled(); err != nil {
			t.Fatal(err)
		}
		for _, strategy := range Strategies() {
			measured := newReplayerBytes(t, pp, strategy, cfg)
			r, err := NewReplayer(pp, strategy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			charge := r.bytes
			t.Logf("%s/%v: charged %d B, NewReplayer allocates %d B", wl, strategy, charge, measured)
			if charge*4 < measured*3 || charge*4 > measured*5 {
				t.Errorf("%s/%v: charged %d B, NewReplayer allocates %d B: want within 25%%",
					wl, strategy, charge, measured)
			}
		}
	}
}

package service

import (
	"context"
	"testing"

	"uhm/internal/faultinject"
)

// TestChaosSmoke is the acceptance gate for the resilience layer: 200 seeded
// fault plans — build failures, checkout and check-in failures, forced
// evictions, ErrNoTrace storms, injected overloads and run panics — each
// against a fresh service under a concurrent mixed workload, with zero
// invariant violations allowed.  Any failure prints the reproducer seed;
// rerun it alone with uhmbench -chaos 1 -seed N.
func TestChaosSmoke(t *testing.T) {
	plans := 200
	if testing.Short() {
		plans = 25
	}
	res, err := ChaosSweep(context.Background(), 1, plans, ChaosOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plans != plans {
		t.Fatalf("ran %d plans, want %d", res.Plans, plans)
	}
	for i, v := range res.Violations {
		if i >= 16 {
			t.Errorf("... %d more violations", len(res.Violations)-i)
			break
		}
		t.Errorf("%s", v)
	}
	// A sweep that never injects is vacuous: across 200 random plans every
	// service-level site must have fired at least once.
	for _, site := range []faultinject.Site{
		faultinject.SiteRegistryBuild, faultinject.SiteRegistryEvict,
		faultinject.SitePoolAcquire, faultinject.SitePoolCheckin,
		faultinject.SiteTraceRecord, faultinject.SiteDerive,
		faultinject.SiteServiceRun, faultinject.SiteAdmission,
	} {
		if res.Fired[site] == 0 {
			t.Errorf("site %s never fired across %d plans", site, res.Plans)
		}
	}
	t.Logf("chaos: %d plans, %d requests, %d violations, fires: %v",
		res.Plans, res.Requests, len(res.Violations), res.Fired)
}

package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"uhm/internal/perfmodel"
	"uhm/internal/workload/gen"
)

// archexpTestAxes keeps the experiment tests fast: two locality profiles,
// two programs each.
func archexpTestAxes(t *testing.T) ([]string, int) {
	t.Helper()
	if testing.Short() {
		return []string{"dispatch"}, 1
	}
	return []string{"recursion", "dispatch"}, 2
}

// TestArchetypeSweepSerialMatchesParallel renders the archetype sweep under
// the serial and parallel engines and requires byte-identical reports, the
// same determinism contract every other grid experiment carries.
func TestArchetypeSweepSerialMatchesParallel(t *testing.T) {
	ctx := context.Background()
	cfg := engineTestConfig()
	archetypes, programs := archexpTestAxes(t)

	serialRows, err := Engine{Workers: 1}.ArchetypeSweep(ctx, archetypes, programs, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallelRows, err := Engine{Workers: 8}.ArchetypeSweep(ctx, archetypes, programs, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Errorf("parallel sweep differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			RenderArchetypeSweep(serialRows), RenderArchetypeSweep(parallelRows))
	}
}

// TestArchetypeSweepShape pins the sweep's structural invariants: the row
// grid covers archetypes x the Figure 2 capacity axis in order, hit ratios
// are valid probabilities bracketed by the per-program min/max, and capacity
// is monotone in the entry count.
func TestArchetypeSweepShape(t *testing.T) {
	ctx := context.Background()
	cfg := engineTestConfig()
	archetypes, programs := archexpTestAxes(t)

	rows, err := Engine{}.ArchetypeSweep(ctx, archetypes, programs, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(archetypes)*len(figure2Entries) {
		t.Fatalf("got %d rows, want %d", len(rows), len(archetypes)*len(figure2Entries))
	}
	for i, r := range rows {
		wantArch := archetypes[i/len(figure2Entries)]
		wantEntries := figure2Entries[i%len(figure2Entries)]
		if r.Archetype != wantArch || r.Entries != wantEntries {
			t.Fatalf("row %d = (%s, %d), want (%s, %d)", i, r.Archetype, r.Entries, wantArch, wantEntries)
		}
		if r.Programs != programs {
			t.Errorf("row %d: programs = %d, want %d", i, r.Programs, programs)
		}
		if r.HitRatio < 0 || r.HitRatio > 1 || r.MinHitRatio > r.MaxHitRatio {
			t.Errorf("row %d: implausible hit ratios %+v", i, r)
		}
		if r.HitRatio < r.MinHitRatio-1e-9 || r.HitRatio > r.MaxHitRatio+1e-9 {
			t.Errorf("row %d: population ratio %.4f outside per-program bounds [%.4f, %.4f]",
				i, r.HitRatio, r.MinHitRatio, r.MaxHitRatio)
		}
		if i%len(figure2Entries) > 0 && r.CapacityBytes <= rows[i-1].CapacityBytes {
			t.Errorf("row %d: capacity %d B not larger than previous %d B", i, r.CapacityBytes, rows[i-1].CapacityBytes)
		}
	}
	rendered := RenderArchetypeSweep(rows)
	for _, a := range archetypes {
		if !containsLine(rendered, a) {
			t.Errorf("rendered sweep is missing archetype %q:\n%s", a, rendered)
		}
	}
}

// TestArchetypeSweepCrossCheck runs a single sweep cell population under
// ModeCrossCheck: every report must agree field-for-field between the
// trace-derived and interleaved-simulation paths.
func TestArchetypeSweepCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("crosscheck doubles every run")
	}
	ctx := context.Background()
	cfg := engineTestConfig()
	e := Engine{Workers: 8, Mode: ModeCrossCheck}
	if _, err := e.ArchetypeSweep(ctx, []string{"phased"}, 1, 1, cfg); err != nil {
		t.Fatalf("crosscheck sweep: %v", err)
	}
}

// TestModelValidation checks the analytic-model error study end to end:
// every sample carries a full metric set, the aggregates are consistent with
// the samples, and the metrics the model captures exactly (T1, T3: their
// equations are parameterised by the very measurements they predict) come
// out with near-zero error while T4 shows the documented systematic
// over-prediction from superinstruction fusion.
func TestModelValidation(t *testing.T) {
	ctx := context.Background()
	cfg := engineTestConfig()
	archetypes, programs := archexpTestAxes(t)

	v, err := Engine{}.ModelValidation(ctx, archetypes, programs, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Samples) != len(archetypes)*programs {
		t.Fatalf("got %d samples, want %d", len(v.Samples), len(archetypes)*programs)
	}
	for i, s := range v.Samples {
		if s.Archetype != archetypes[i/programs] {
			t.Errorf("sample %d: archetype %q, want %q", i, s.Archetype, archetypes[i/programs])
		}
		if s.Seed != 1+int64(i%programs) {
			t.Errorf("sample %d: seed %d, want %d", i, s.Seed, 1+int64(i%programs))
		}
		for _, m := range perfmodel.Metrics() {
			if _, ok := s.Errors[m]; !ok {
				t.Errorf("sample %d: missing error for %s", i, m)
			}
		}
	}
	for _, m := range perfmodel.Metrics() {
		st, ok := v.Overall[m]
		if !ok || st.N != len(v.Samples) {
			t.Fatalf("overall %s: %+v (ok=%v), want n=%d", m, st, ok, len(v.Samples))
		}
		if st.Min > st.P50 || st.P50 > st.P95 || st.P95 > st.Max {
			t.Errorf("overall %s: unordered quantiles %+v", m, st)
		}
	}
	for _, a := range archetypes {
		per, ok := v.PerArchetype[a]
		if !ok {
			t.Fatalf("missing per-archetype stats for %q", a)
		}
		for _, m := range perfmodel.Metrics() {
			if per[m].N != programs {
				t.Errorf("%s/%s: n = %d, want %d", a, m, per[m].N, programs)
			}
		}
	}
	// T1 and T3 are parameterised directly from the runs they predict, so
	// their errors must be numerically negligible.
	for _, m := range []string{"T1", "T3"} {
		if ab := v.Overall[m].MaxAbs; ab > 0.5 {
			t.Errorf("%s |max| error = %.4f%%, want < 0.5%%", m, ab)
		}
	}
	// T4 = t1 + x cannot see superinstruction fusion: the model must
	// over-predict the compiled organisation on every program.
	if v.Overall["T4"].Min <= 0 {
		t.Errorf("T4 min error = %+.2f%%, want the documented systematic over-prediction (> 0)", v.Overall["T4"].Min)
	}

	rendered := RenderModelValidation(v)
	for _, a := range archetypes {
		if !containsLine(rendered, a) {
			t.Errorf("rendered validation is missing archetype %q:\n%s", a, rendered)
		}
	}
}

// TestModelValidationDeterministic requires the study to be reproducible:
// same axes, same seed, same engine shape — identical document.
func TestModelValidationDeterministic(t *testing.T) {
	ctx := context.Background()
	cfg := engineTestConfig()
	archetypes, programs := archexpTestAxes(t)

	a, err := Engine{}.ModelValidation(ctx, archetypes, programs, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Engine{Workers: 1}.ModelValidation(ctx, archetypes, programs, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := ModelValidationJSON(a, "test")
	if err != nil {
		t.Fatal(err)
	}
	jb, err := ModelValidationJSON(b, "test")
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("parallel and serial validations differ:\n--- parallel ---\n%s\n--- serial ---\n%s", ja, jb)
	}
}

// TestModelValidationJSONRoundTrip parses the committed-artifact document
// back and checks it survives the trip unchanged.
func TestModelValidationJSONRoundTrip(t *testing.T) {
	ctx := context.Background()
	cfg := engineTestConfig()

	v, err := Engine{}.ModelValidation(ctx, []string{"kernel"}, 1, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ModelValidationJSON(v, "round-trip")
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Label string `json:"label"`
		ModelValidation
	}
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Label != "round-trip" {
		t.Errorf("label = %q", back.Label)
	}
	if !reflect.DeepEqual(back.ModelValidation.Samples, v.Samples) {
		t.Error("samples did not survive the JSON round trip")
	}
	if !reflect.DeepEqual(back.ModelValidation.Overall, v.Overall) {
		t.Error("overall stats did not survive the JSON round trip")
	}
}

// TestMeasuredResult pins the figures-of-merit arithmetic, including the
// zero-denominator guards.
func TestMeasuredResult(t *testing.T) {
	r := measuredResult(30, 20, 25, 10)
	if r.T1 != 30 || r.T2 != 20 || r.T3 != 25 || r.T4 != 10 {
		t.Fatalf("times: %+v", r)
	}
	if math.Abs(r.F1-25) > 1e-12 || math.Abs(r.F2-50) > 1e-12 || math.Abs(r.F3-100) > 1e-12 {
		t.Errorf("figures of merit: %+v, want F1=25 F2=50 F3=100", r)
	}
	z := measuredResult(1, 0, 1, 0)
	if z.F1 != 0 || z.F2 != 0 || z.F3 != 0 {
		t.Errorf("zero denominators must yield zero figures: %+v", z)
	}
}

// TestArchetypeAxisDefaults ties the experiments' default axis to the
// generator catalogue.
func TestArchetypeAxisDefaults(t *testing.T) {
	if got, want := archetypeAxis(nil), gen.ArchetypeNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("archetypeAxis(nil) = %v, want %v", got, want)
	}
	if got := archetypeAxis([]string{"kernel"}); !reflect.DeepEqual(got, []string{"kernel"}) {
		t.Errorf("archetypeAxis(kernel) = %v", got)
	}
	if _, err := (Engine{}).ArchetypeSweep(context.Background(),
		[]string{"no-such-archetype"}, 1, 1, engineTestConfig()); err == nil {
		t.Error("unknown archetype: want error, got nil")
	}
}

// containsLine reports whether the rendered report mentions the word.
func containsLine(rendered, word string) bool {
	return strings.Contains(rendered, word)
}

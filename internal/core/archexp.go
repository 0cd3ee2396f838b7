// Archetype experiments: the two studies that extend the paper's evaluation
// beyond its original phase space.  The archetype x DTB-capacity sweep
// re-runs the Figure 2 hit-ratio study over every generator locality profile,
// and the model-validation experiment runs the §7 analytic predictions
// (T1-T4, F1-F3) against measured values over populations of generated
// programs, reporting the signed-error distribution — the committed error
// bound on the analytic model.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"uhm/internal/metrics"
	"uhm/internal/perfmodel"
	"uhm/internal/workload/gen"
)

// defaultArchetypePrograms is the per-archetype population when the caller
// does not choose one.
const defaultArchetypePrograms = 6

// archetypeAxis resolves the archetype list: nil/empty selects the full
// catalogue in presentation order.
func archetypeAxis(archetypes []string) []string {
	if len(archetypes) == 0 {
		return gen.ArchetypeNames()
	}
	return archetypes
}

// generateArchetypeArtifacts generates and builds programs seed..seed+n-1 for
// every archetype on the engine's pool: arts[ai][pi] is archetype ai's
// program pi, compiled at LevelStack and predecoded at the configured degree.
func (e Engine) generateArchetypeArtifacts(ctx context.Context, archetypes []string,
	programs int, seed int64, cfg Config) ([][]*Artifact, error) {
	arts := make([][]*Artifact, len(archetypes))
	for i := range arts {
		arts[i] = make([]*Artifact, programs)
	}
	err := e.forEach(ctx, len(archetypes)*programs, func(i int) error {
		ai, pi := i/programs, i%programs
		a, err := gen.ArchetypeByName(archetypes[ai])
		if err != nil {
			return err
		}
		p, err := a.Generate(seed + int64(pi))
		if err != nil {
			return err
		}
		art, err := BuildSource(p.Name, p.Source, LevelStack)
		if err != nil {
			return fmt.Errorf("core: archetype %s seed %d: %w", a.Name, p.Seed, err)
		}
		if _, err := art.Predecoded(cfg.Degree); err != nil {
			return fmt.Errorf("core: archetype %s seed %d: %w", a.Name, p.Seed, err)
		}
		arts[ai][pi] = art
		return nil
	})
	if err != nil {
		return nil, err
	}
	return arts, nil
}

// --- Archetype x DTB-capacity sweep ----------------------------------------

// ArchetypeSweepRow is one (archetype, DTB capacity) cell, aggregated over
// the archetype's program population.
type ArchetypeSweepRow struct {
	Archetype     string
	Entries       int
	CapacityBytes int
	// Programs is the population size behind the aggregates.
	Programs int
	// HitRatio is the population-level DTB hit ratio (total hits over total
	// lookups, not a mean of ratios, so long programs weigh more).
	HitRatio float64
	// MinHitRatio/MaxHitRatio bound the per-program ratios.
	MinHitRatio float64
	MaxHitRatio float64
	Evictions   int64
	Overflows   int64
}

// ArchetypeSweep charts DTB hit-ratio sensitivity per locality profile: for
// every archetype it generates a seeded program population and sweeps the
// Figure 2 capacity axis, one (archetype, capacity, program) run per pool
// slot.  Reports honour the engine's Mode, so the sweep is derived by default
// and crosscheck-able field-for-field.
func (e Engine) ArchetypeSweep(ctx context.Context, archetypes []string,
	programs int, seed int64, cfg Config) ([]ArchetypeSweepRow, error) {
	archetypes = archetypeAxis(archetypes)
	if programs <= 0 {
		programs = defaultArchetypePrograms
	}
	arts, err := e.generateArchetypeArtifacts(ctx, archetypes, programs, seed, cfg)
	if err != nil {
		return nil, err
	}

	entries := figure2Entries
	type cell struct {
		hits, lookups        int64
		evictions, overflows int64
		hitRatio             float64
	}
	cells := make([]cell, len(archetypes)*len(entries)*programs)
	err = e.forEach(ctx, len(cells), func(i int) error {
		ai := i / (len(entries) * programs)
		ei := (i / programs) % len(entries)
		pi := i % programs
		runCfg := cfg
		runCfg.DTB = figure2DTB(entries[ei], cfg.DTB.UnitWords)
		rep, err := e.run(arts[ai][pi], WithDTB, runCfg)
		if err != nil {
			return fmt.Errorf("core: archetype sweep %s/%d entries: %w", archetypes[ai], entries[ei], err)
		}
		cells[i] = cell{
			hits:      rep.DTBStats.Hits,
			lookups:   rep.DTBStats.Lookups,
			evictions: rep.DTBStats.Evictions,
			overflows: rep.DTBStats.Overflows,
			hitRatio:  rep.Measured.HD,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]ArchetypeSweepRow, 0, len(archetypes)*len(entries))
	for ai, name := range archetypes {
		for ei, ent := range entries {
			row := ArchetypeSweepRow{Archetype: name, Entries: ent, Programs: programs}
			var hits, lookups int64
			for pi := 0; pi < programs; pi++ {
				c := cells[ai*len(entries)*programs+ei*programs+pi]
				hits += c.hits
				lookups += c.lookups
				row.Evictions += c.evictions
				row.Overflows += c.overflows
				if pi == 0 || c.hitRatio < row.MinHitRatio {
					row.MinHitRatio = c.hitRatio
				}
				if pi == 0 || c.hitRatio > row.MaxHitRatio {
					row.MaxHitRatio = c.hitRatio
				}
			}
			if lookups > 0 {
				row.HitRatio = float64(hits) / float64(lookups)
			}
			row.CapacityBytes = figure2DTB(ent, cfg.DTB.UnitWords).CapacityBytes()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderArchetypeSweep formats the sweep, one block per archetype.
func RenderArchetypeSweep(rows []ArchetypeSweepRow) string {
	tbl := metrics.NewTable(
		"Archetype x DTB capacity: hit-ratio sensitivity per locality profile (extends Figure 2)",
		"archetype", "entries", "capacity", "hit ratio", "min..max", "evictions", "overflows")
	prev := ""
	for _, r := range rows {
		name := r.Archetype
		if name == prev {
			name = ""
		} else {
			prev = r.Archetype
		}
		tbl.AddRow(name, fmt.Sprint(r.Entries), fmt.Sprintf("%d B", r.CapacityBytes),
			fmt.Sprintf("%.4f", r.HitRatio),
			fmt.Sprintf("%.4f..%.4f", r.MinHitRatio, r.MaxHitRatio),
			fmt.Sprint(r.Evictions), fmt.Sprint(r.Overflows))
	}
	return tbl.Render()
}

// --- Analytic-model validation ---------------------------------------------

// ModelSample is one generated program's model-vs-measurement comparison.
type ModelSample struct {
	Archetype string             `json:"archetype"`
	Seed      int64              `json:"seed"`
	Predicted perfmodel.Result   `json:"predicted"`
	Measured  perfmodel.Result   `json:"measured"`
	Errors    map[string]float64 `json:"errors"`
}

// ModelValidation is the outcome of the analytic-model error study.
type ModelValidation struct {
	// Archetypes and Programs describe the population: Programs seeded
	// programs per archetype, seeds Seed..Seed+Programs-1.
	Archetypes []string `json:"archetypes"`
	Programs   int      `json:"programs"`
	Seed       int64    `json:"seed"`
	// Samples holds every program's comparison, archetype-major in seed order.
	Samples []ModelSample `json:"samples"`
	// Overall is the signed-error distribution per metric over all samples;
	// PerArchetype splits it by locality profile.  T metrics are relative
	// errors in percent, F metrics absolute errors in percentage points.
	Overall      map[string]perfmodel.ErrorStats            `json:"overall"`
	PerArchetype map[string]map[string]perfmodel.ErrorStats `json:"per_archetype"`
}

// measuredResult assembles the empirically observed counterpart of the model:
// per-instruction cycle costs of the four modelled organisations and the
// figures of merit computed from them.
func measuredResult(t1, t2, t3, t4 float64) perfmodel.Result {
	r := perfmodel.Result{T1: t1, T2: t2, T3: t3, T4: t4}
	if t2 != 0 {
		r.F1 = (t3 - t2) / t2 * 100
		r.F2 = (t1 - t2) / t2 * 100
	}
	if t4 != 0 {
		r.F3 = (t2 - t4) / t4 * 100
	}
	return r
}

// ModelValidation runs the §7 analytic model against measurement for every
// program of every archetype population: the model is parameterised by the
// values measured during the conventional, DTB and cache runs (d, g, x, s1,
// s2, hD, hC), its predictions are compared with the measured
// per-instruction times of all four organisations, and the signed errors are
// summarised per metric.  T4 is the reproduction's extension: the model's
// T4 = t1 + x charges one buffer access plus semantics, while the compiled
// backend fuses instruction sequences, so its error is expected to be the
// systematic outlier — the distribution quantifies by how much.
func (e Engine) ModelValidation(ctx context.Context, archetypes []string,
	programs int, seed int64, cfg Config) (*ModelValidation, error) {
	archetypes = archetypeAxis(archetypes)
	if programs <= 0 {
		programs = defaultArchetypePrograms
	}
	arts, err := e.generateArchetypeArtifacts(ctx, archetypes, programs, seed, cfg)
	if err != nil {
		return nil, err
	}

	res := &ModelValidation{
		Archetypes:   archetypes,
		Programs:     programs,
		Seed:         seed,
		Samples:      make([]ModelSample, len(archetypes)*programs),
		Overall:      map[string]perfmodel.ErrorStats{},
		PerArchetype: map[string]map[string]perfmodel.ErrorStats{},
	}
	err = e.forEach(ctx, len(res.Samples), func(i int) error {
		ai, pi := i/programs, i%programs
		art := arts[ai][pi]
		conv, err := e.run(art, Conventional, cfg)
		if err != nil {
			return fmt.Errorf("core: model validation %s: %w", art.Name, err)
		}
		dtbRep, err := e.run(art, WithDTB, cfg)
		if err != nil {
			return fmt.Errorf("core: model validation %s: %w", art.Name, err)
		}
		cacheRep, err := e.run(art, WithCache, cfg)
		if err != nil {
			return fmt.Errorf("core: model validation %s: %w", art.Name, err)
		}
		compRep, err := e.run(art, Compiled, cfg)
		if err != nil {
			return fmt.Errorf("core: model validation %s: %w", art.Name, err)
		}

		params := perfmodel.Params{
			T1Access: float64(cfg.Memory.Level1Time),
			T2Access: float64(cfg.Memory.Level2Time),
			TDAccess: float64(cfg.Memory.BufferTime),
			D:        conv.Measured.D,
			G:        dtbRep.Measured.G,
			X:        conv.Measured.X,
			S1:       dtbRep.Measured.S1,
			S2:       conv.Measured.S2,
			HD:       dtbRep.Measured.HD,
			HC:       cacheRep.Measured.HC,
		}
		predicted, err := perfmodel.Evaluate(params)
		if err != nil {
			return fmt.Errorf("core: model validation %s: %w", art.Name, err)
		}
		measured := measuredResult(conv.PerInstruction, dtbRep.PerInstruction,
			cacheRep.PerInstruction, compRep.PerInstruction)

		sample := ModelSample{
			Archetype: archetypes[ai],
			Seed:      seed + int64(pi),
			Predicted: predicted,
			Measured:  measured,
			Errors:    map[string]float64{},
		}
		for _, metric := range perfmodel.Metrics() {
			signed, err := perfmodel.SignedError(metric, predicted, measured)
			if err != nil {
				return fmt.Errorf("core: model validation %s: %s: %w", art.Name, metric, err)
			}
			sample.Errors[metric] = signed
		}
		res.Samples[i] = sample
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, metric := range perfmodel.Metrics() {
		var all []float64
		for _, s := range res.Samples {
			all = append(all, s.Errors[metric])
		}
		res.Overall[metric] = perfmodel.ComputeErrorStats(all)
	}
	for ai, name := range archetypes {
		per := map[string]perfmodel.ErrorStats{}
		for _, metric := range perfmodel.Metrics() {
			var errs []float64
			for pi := 0; pi < programs; pi++ {
				errs = append(errs, res.Samples[ai*programs+pi].Errors[metric])
			}
			per[metric] = perfmodel.ComputeErrorStats(errs)
		}
		res.PerArchetype[name] = per
	}
	return res, nil
}

// RenderModelValidation formats the error distributions: the overall bound
// first, then the per-archetype split.
func RenderModelValidation(v *ModelValidation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Analytic-model validation: §7 predictions vs measurement over %d programs (%d archetypes x %d, seeds %d..%d)\n",
		len(v.Samples), len(v.Archetypes), v.Programs, v.Seed, v.Seed+int64(v.Programs)-1)
	b.WriteString("Signed errors: positive = model over-predicts; T metrics in % of measured, F metrics in percentage points.\n\n")

	render := func(title string, stats map[string]perfmodel.ErrorStats) {
		tbl := metrics.NewTable(title, "metric", "n", "min", "p50", "p95", "max", "mean", "|max|")
		for _, m := range perfmodel.Metrics() {
			s := stats[m]
			tbl.AddRow(m, fmt.Sprint(s.N),
				fmt.Sprintf("%+.2f", s.Min), fmt.Sprintf("%+.2f", s.P50),
				fmt.Sprintf("%+.2f", s.P95), fmt.Sprintf("%+.2f", s.Max),
				fmt.Sprintf("%+.2f", s.Mean), fmt.Sprintf("%.2f", s.MaxAbs))
		}
		b.WriteString(tbl.Render())
		b.WriteString("\n")
	}
	render("Overall signed-error distribution", v.Overall)
	for _, name := range v.Archetypes {
		render(fmt.Sprintf("Archetype %q", name), v.PerArchetype[name])
	}
	return b.String()
}

// ModelValidationJSON renders the study as the committed machine-readable
// artifact (MODEL_ERROR_PR<N>.json): a labelled, indented, stable-key
// document.
func ModelValidationJSON(v *ModelValidation, label string) ([]byte, error) {
	doc := struct {
		Label string `json:"label"`
		*ModelValidation
	}{Label: label, ModelValidation: v}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

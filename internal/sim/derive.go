// Trace-derived cost reports: the "cost many" half of the trace-once/
// cost-many split.  A Replayer.run interleaves semantic execution with cost
// charging because the cost models need the dynamic pc stream; Derive gets
// the same stream from the shared recorded trace (internal/trace) and runs
// only the cost models — the DTB and cache state machines and the per-pc
// fetch, decode and translate costs recorded by predecode.  Every derived
// report is field-for-field equal to the fully simulated one: the state
// machines are the same objects the live loop drives, the arithmetic is the
// same integer arithmetic, and any run the trace cannot answer exactly
// (recording failed, or the trace exceeds this configuration's bounds) is
// declined with ErrNoTrace so the caller falls back to full simulation.
package sim

import (
	"errors"
	"fmt"
	"slices"

	"uhm/internal/dtb"
	"uhm/internal/faultinject"
	"uhm/internal/memory"
)

// ErrNoTrace reports that a derived report cannot be produced for this
// program and configuration; callers fall back to full simulation (which
// ReplayDerived does automatically).
var ErrNoTrace = errors.New("sim: no usable execution trace")

// RunDerived produces the report for one predecoded program and strategy from
// the shared execution trace, falling back to full simulation when the trace
// cannot answer exactly.  It is the one-shot form of ReplayDerived.
func RunDerived(pp *PredecodedProgram, strategy Strategy, cfg Config) (*Report, error) {
	r, err := NewReplayer(pp, strategy, cfg)
	if err != nil {
		return nil, err
	}
	return r.ReplayDerived()
}

// ReplayDerived returns the trace-derived report when the trace can answer
// exactly, and falls back to a full Replay otherwise; the report is read-only
// and owned by the Replayer, valid as Derive and Replay describe.
func (r *Replayer) ReplayDerived() (*Report, error) {
	rep, err := r.Derive()
	if err == nil {
		return rep, nil
	}
	if !errors.Is(err, ErrNoTrace) {
		return nil, err
	}
	return r.Replay()
}

// Derive streams the recorded execution trace through this Replayer's cost
// model and returns the resulting report, marked Derived.  No semantics run:
// the host machine and compiled run-time state are untouched.  Derive errors
// with ErrNoTrace when the recording failed or the trace falls outside this
// configuration's instruction or depth bounds — by the bounds-equivalence
// argument (the limit checks compare the same counts the trace records), the
// live fallback then reproduces exactly what full simulation would do,
// success or error.  The report depends only on the trace, strategy and
// configuration, so it is streamed once and held: until the next Replay,
// Derive fires the sim/derive fault site and returns it.  It is read-only,
// valid until that Replay, and its Output aliases the shared trace.
func (r *Replayer) Derive() (*Report, error) {
	if ferr := faultinject.Fire(faultinject.SiteDerive); ferr != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoTrace, ferr)
	}
	if r.derived {
		return &r.report, nil
	}
	tr, err := r.pp.Trace()
	if err != nil {
		return nil, fmt.Errorf("%w: recording failed: %v", ErrNoTrace, err)
	}
	if tr.Instructions() > r.cfg.MaxInstructions {
		return nil, fmt.Errorf("%w: trace has %d instructions, limit %d",
			ErrNoTrace, tr.Instructions(), r.cfg.MaxInstructions)
	}
	if tr.PeakDepth > r.cfg.MaxDepth {
		return nil, fmt.Errorf("%w: trace peak depth %d, limit %d",
			ErrNoTrace, tr.PeakDepth, r.cfg.MaxDepth)
	}

	r.report = r.base
	report := &r.report
	report.Derived = true
	report.Output = tr.Output
	t1 := r.cfg.Memory.Level1Time
	t2 := r.cfg.Memory.Level2Time
	tD := r.cfg.Memory.BufferTime

	if r.strategy == Compiled {
		// The recorded backend statistics are the run: instructions retired,
		// native fetches (one level-1 reference each) and semantic cost.
		st := tr.Compiled
		report.Instructions = st.Instructions
		report.FetchCycles = memory.Cycles(st.Fetches) * t1
		report.SemanticCycles = memory.Cycles(st.SemanticCost)
		report.Memory = memory.Stats{Level1Refs: st.Fetches, Level1Time: memory.Cycles(st.Fetches) * t1}
		report.TotalCycles = report.FetchCycles + report.SemanticCycles
		if report.Instructions > 0 {
			report.PerInstruction = float64(report.TotalCycles) / float64(report.Instructions)
			report.Measured.X = float64(report.SemanticCycles) / float64(report.Instructions)
		}
		r.derived = true
		return report, nil
	}

	report.Instructions = tr.Instructions()
	report.SemanticCycles = memory.Cycles(tr.SemanticCycles)

	// Per-strategy cost streamers.  Each mirrors its arm of Replayer.run
	// exactly — same state machines, same per-pc tables, same integer
	// arithmetic — minus the semantic execution the trace already paid for.
	var decodeSteps, decodedInstrs int64
	var translateOps, translations int64
	var psderWordsFetched, l2Fetches int64
	var l2Words, bufferRefs int64

	switch r.strategy {
	case Conventional:
		for _, pc := range tr.PCs {
			l2Words += int64(r.pp.fetchWords[pc])
			decodeSteps += int64(r.pp.costs[pc].Steps)
		}
		decodedInstrs = report.Instructions
		l2Fetches = report.Instructions
		report.FetchCycles = memory.Cycles(l2Words) * t2
		report.DecodeCycles = memory.Cycles(decodeSteps)

	case WithCache:
		r.icache.Reset()
		var hits, misses int64
		for _, pc := range tr.PCs {
			first := int(r.pp.fetchFirst[pc])
			h, m := r.icache.ChargeSpan(first, first+int(r.pp.fetchWords[pc])-1, memory.WordBytes)
			hits += int64(h)
			misses += int64(m)
			decodeSteps += int64(r.pp.costs[pc].Steps)
		}
		decodedInstrs = report.Instructions
		l2Fetches = report.Instructions
		l2Words = misses
		report.FetchCycles = memory.Cycles(hits)*tD + memory.Cycles(misses)*t2
		report.DecodeCycles = memory.Cycles(decodeSteps)

	case WithDTB:
		r.buf.Reset()
		for _, pc := range tr.PCs {
			words, hit := r.buf.Lookup(uint64(pc))
			if hit {
				report.FetchCycles += memory.Cycles(words) * tD
				bufferRefs += int64(words)
				psderWordsFetched += int64(words)
				continue
			}
			w := int64(r.pp.fetchWords[pc])
			l2Words += w
			l2Fetches++
			report.FetchCycles += memory.Cycles(w) * t2
			decodeSteps += int64(r.pp.costs[pc].Steps)
			decodedInstrs++
			n := int64(len(r.pp.seqs[pc]))
			genCycles := memory.Cycles(n)
			storeCycles := memory.Cycles(n) * tD
			report.TranslateCycles += genCycles + storeCycles
			translateOps += int64(genCycles + storeCycles)
			translations++
			if err := r.buf.Install(uint64(pc), int(n)); err != nil &&
				!errors.Is(err, dtb.ErrTooLarge) && !errors.Is(err, dtb.ErrNoOverflow) {
				return nil, err
			}
			// Store into the buffer array, then fetch the fresh translation
			// back out, exactly as the live miss path charges it.
			bufferRefs += 2 * n
			report.FetchCycles += memory.Cycles(n) * tD
			psderWordsFetched += n
		}
		report.DecodeCycles = memory.Cycles(decodeSteps)

	case Expanded:
		var words int64
		for _, pc := range tr.PCs {
			words += int64(len(r.pp.seqs[pc]))
		}
		psderWordsFetched = words
		report.FetchCycles = memory.Cycles(words) * t2
	}

	// The closing accounting of Replayer.run, with the memory statistics
	// reconstructed from the same reference counts the hierarchy would have
	// accumulated (the live loop's only charges are level-2 instruction words
	// and DTB buffer references).
	report.Memory = memory.Stats{
		Level2Refs: l2Words,
		Level2Time: memory.Cycles(l2Words) * t2,
		BufferRefs: bufferRefs,
		BufferTime: memory.Cycles(bufferRefs) * tD,
	}
	if r.buf != nil {
		report.DTBStats = r.buf.Stats()
		report.Measured.HD = r.buf.Stats().HitRatio()
	}
	if r.icache != nil {
		report.CacheStats = r.icache.Stats()
		report.Measured.HC = r.icache.Stats().HitRatio()
	}
	report.TotalCycles = report.FetchCycles + report.DecodeCycles + report.TranslateCycles + report.SemanticCycles
	if report.Instructions > 0 {
		report.PerInstruction = float64(report.TotalCycles) / float64(report.Instructions)
		report.Measured.X = float64(report.SemanticCycles) / float64(report.Instructions)
	}
	if decodedInstrs > 0 {
		report.Measured.D = float64(decodeSteps) / float64(decodedInstrs)
	}
	if translations > 0 {
		report.Measured.G = float64(translateOps) / float64(translations)
	}
	if report.Instructions > 0 && psderWordsFetched > 0 {
		report.Measured.S1 = float64(psderWordsFetched) / float64(report.Instructions)
	}
	if l2Fetches > 0 {
		report.Measured.S2 = float64(report.Memory.Level2Refs) / float64(l2Fetches)
	}
	r.derived = true
	return report, nil
}

// DiffReports compares two reports field for field — every cost, statistic
// and measured parameter except the Derived marker itself — and returns a
// human-readable description of the differences, or "" when they are equal.
// It is the equality the tentpole promises: derived == simulated, exactly.
func DiffReports(a, b *Report) string {
	var diffs []string
	add := func(field string, av, bv any) {
		diffs = append(diffs, fmt.Sprintf("%s: %v != %v", field, av, bv))
	}
	if a.Strategy != b.Strategy {
		add("Strategy", a.Strategy, b.Strategy)
	}
	if a.Degree != b.Degree {
		add("Degree", a.Degree, b.Degree)
	}
	if !slices.Equal(a.Output, b.Output) {
		add("Output", a.Output, b.Output)
	}
	if a.Instructions != b.Instructions {
		add("Instructions", a.Instructions, b.Instructions)
	}
	if a.FetchCycles != b.FetchCycles {
		add("FetchCycles", a.FetchCycles, b.FetchCycles)
	}
	if a.DecodeCycles != b.DecodeCycles {
		add("DecodeCycles", a.DecodeCycles, b.DecodeCycles)
	}
	if a.TranslateCycles != b.TranslateCycles {
		add("TranslateCycles", a.TranslateCycles, b.TranslateCycles)
	}
	if a.SemanticCycles != b.SemanticCycles {
		add("SemanticCycles", a.SemanticCycles, b.SemanticCycles)
	}
	if a.TotalCycles != b.TotalCycles {
		add("TotalCycles", a.TotalCycles, b.TotalCycles)
	}
	if a.PerInstruction != b.PerInstruction {
		add("PerInstruction", a.PerInstruction, b.PerInstruction)
	}
	if a.StaticBits != b.StaticBits {
		add("StaticBits", a.StaticBits, b.StaticBits)
	}
	if a.CodebookBits != b.CodebookBits {
		add("CodebookBits", a.CodebookBits, b.CodebookBits)
	}
	if a.InterpreterWords != b.InterpreterWords {
		add("InterpreterWords", a.InterpreterWords, b.InterpreterWords)
	}
	if a.ExpandedWords != b.ExpandedWords {
		add("ExpandedWords", a.ExpandedWords, b.ExpandedWords)
	}
	if a.CompiledWords != b.CompiledWords {
		add("CompiledWords", a.CompiledWords, b.CompiledWords)
	}
	if a.Measured != b.Measured {
		add("Measured", a.Measured, b.Measured)
	}
	if a.DTBStats != b.DTBStats {
		add("DTBStats", a.DTBStats, b.DTBStats)
	}
	if a.CacheStats != b.CacheStats {
		add("CacheStats", a.CacheStats, b.CacheStats)
	}
	if a.Memory != b.Memory {
		add("Memory", a.Memory, b.Memory)
	}
	if len(diffs) == 0 {
		return ""
	}
	result := diffs[0]
	for _, d := range diffs[1:] {
		result += "; " + d
	}
	return result
}

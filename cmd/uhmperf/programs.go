package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uhm/internal/core"
	"uhm/internal/sim"
	"uhm/internal/workload"
	"uhm/internal/workload/gen"
)

// program is one generated input: its source, the request that asks for it,
// and the answers it must get.
type program struct {
	*gen.Program
	// body is the /v1/run request body, which is also its /batch/run item.
	body []byte
	// want is core.RunSimulated of the program as uhmd runs it by default:
	// stack level, the default configuration, the DTB organisation.
	want *sim.Report
}

// servedMix is the archetype cycle of the served workloads' programs
// (kernel=2,recursion=1,phased=1,dispatch=1).
var servedMix = []string{"kernel", "kernel", "recursion", "phased", "dispatch"}

// Programs are kept only when their oracle step count, which tracks the
// simulated instruction count to within about 20%, lies in one of the strata
// between strata[0] and strata[len-1].  The generator's run lengths are
// heavy-tailed: a kernel program's median is about 2,000 instructions but
// its maximum over 400 seeds is 1.26 million, so unfiltered one long program
// sets a set's p99.  Within the band the k-th program of each archetype lies
// in stratum k mod 4, so every seed's set has the same mix of sizes while the
// programs still differ: drawn freely from the band, the mean instruction
// count of 16 programs varied by 10% (coefficient of variation over 16
// seeds); stratified, by 3.6%.
var strata = []int64{2000, 2600, 3400, 4700, 8000}

// candidateStride spaces the candidate streams of different seeds apart, so
// no two seeds draw the same candidate.  It is prime and far above the
// candidates any workload uses.
const candidateStride = 1_000_003

// drawer hands out in-band programs from a seed's candidate streams, one
// stream per archetype.
type drawer struct {
	seed    int64
	streams map[string]*stream
	// genUS is the generation time, in µs, of every candidate generated.
	genUS []float64
}

// stream is one archetype's candidates.  A candidate that falls in another
// stratum than the one asked for waits in pending for a later draw of that
// stratum.
type stream struct {
	next    int64 // the next candidate to generate
	drawn   int   // programs handed out so far
	pending [][]*gen.Program
}

func newDrawer(seed int64) *drawer { return &drawer{seed: seed, streams: map[string]*stream{}} }

// stratum is the stratum a step count lies in, or -1 outside the band.
func stratum(steps int64) int {
	if steps < strata[0] {
		return -1
	}
	for j := 1; j < len(strata); j++ {
		if steps <= strata[j] {
			return j - 1
		}
	}
	return -1
}

func (d *drawer) draw(archetype string) (*program, error) {
	st := d.streams[archetype]
	if st == nil {
		st = &stream{pending: make([][]*gen.Program, len(strata)-1)}
		d.streams[archetype] = st
	}
	want := st.drawn % len(st.pending)
	st.drawn++
	for len(st.pending[want]) == 0 {
		if st.next == candidateStride {
			return nil, fmt.Errorf("no %s program of %d..%d steps among %d candidates",
				archetype, strata[want], strata[want+1], candidateStride)
		}
		s := d.seed*candidateStride + st.next
		st.next++
		start := time.Now()
		g, err := workload.GenerateArchetype(archetype, s)
		d.genUS = append(d.genUS, float64(time.Since(start))/1e3)
		// A seed the generator finds no valid program for is skipped like an
		// out-of-band one.
		if err != nil {
			continue
		}
		if j := stratum(g.OracleSteps); j >= 0 {
			st.pending[j] = append(st.pending[j], g)
		}
	}
	g := st.pending[want][0]
	st.pending[want] = st.pending[want][1:]
	body, err := json.Marshal(struct {
		Source   string `json:"source"`
		Name     string `json:"name"`
		Strategy string `json:"strategy"`
	}{g.Source, g.Name, "dtb"})
	if err != nil {
		return nil, err
	}
	return &program{Program: g, body: body}, nil
}

// servedPrograms draws n programs, program i of archetype servedMix[i%5].
func servedPrograms(seed int64, n int) ([]*program, []float64, error) {
	d := newDrawer(seed)
	progs := make([]*program, n)
	for i := range progs {
		var err error
		if progs[i], err = d.draw(servedMix[i%len(servedMix)]); err != nil {
			return nil, nil, err
		}
	}
	return progs, d.genUS, nil
}

// sweepPrograms draws perArchetype programs of every archetype, interleaved
// so that any prefix of the list covers the archetypes evenly.
func sweepPrograms(seed int64, perArchetype int) ([]*program, []float64, error) {
	d := newDrawer(seed)
	var progs []*program
	for range perArchetype {
		for _, a := range workload.ArchetypeNames() {
			p, err := d.draw(a)
			if err != nil {
				return nil, nil, err
			}
			progs = append(progs, p)
		}
	}
	return progs, d.genUS, nil
}

// simulate fills want for every program on workers goroutines.  A program
// whose simulated output differs from the oracle's is a wrong answer of the
// system under test; simulate returns one error line per such program and
// fails only when a program cannot be built or run at all.
func simulate(progs []*program, workers int) (mismatches []string, err error) {
	var mu sync.Mutex
	var firstErr error
	next := atomic.Int64{}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(progs); i = int(next.Add(1) - 1) {
				p := progs[i]
				rep, err := reference(p)
				mu.Lock()
				switch {
				case err != nil:
					firstErr = cmp.Or(firstErr, err)
				case !slices.Equal(rep.Output, p.Output):
					mismatches = append(mismatches, fmt.Sprintf("%s: simulated output %v, oracle %v", p.Name, rep.Output, p.Output))
				}
				p.want = rep
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return mismatches, firstErr
}

func reference(p *program) (*sim.Report, error) {
	art, err := core.BuildSource(p.Name, p.Source, core.LevelStack)
	if err != nil {
		return nil, err
	}
	rep, err := core.RunSimulated(art, core.WithDTB, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// The report lives inside its replayer; a clone lets the replayer's
	// simulated memory go.
	return rep.Clone(), nil
}

// seqLength is the length of a request sequence; loops that outrun it wrap.
const seqLength = 1 << 17

// uniformSequence draws program indices uniformly from [0, n).
func uniformSequence(seed int64, n int) []int32 {
	r := rand.New(rand.NewSource(seed))
	seq := make([]int32, seqLength)
	for i := range seq {
		seq[i] = int32(r.Intn(n))
	}
	return seq
}

// zipfSequence draws program indices from [0, n) with rand.NewZipf(s=1.1,
// v=1): index 0 is the most requested.
func zipfSequence(seed int64, n int) []int32 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(n-1))
	seq := make([]int32, seqLength)
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// reportWire is the part of uhmd's report JSON the benchmark checks.
type reportWire struct {
	Output          []int64 `json:"output"`
	Instructions    int64   `json:"instructions"`
	FetchCycles     int64   `json:"fetch_cycles"`
	DecodeCycles    int64   `json:"decode_cycles"`
	TranslateCycles int64   `json:"translate_cycles"`
	SemanticCycles  int64   `json:"semantic_cycles"`
	TotalCycles     int64   `json:"total_cycles"`
	DTBHitRatio     float64 `json:"dtb_hit_ratio"`
}

// answer is a /v1/run response body or one /batch/run item.
type answer struct {
	Status int         `json:"status"`
	Report *reportWire `json:"report"`
	Error  string      `json:"error"`
}

// check compares a served report with the oracle's output and with the
// simulated reference.
func (p *program) check(r *reportWire) error {
	if !slices.Equal(r.Output, p.Output) {
		return fmt.Errorf("%s: output %v, oracle %v", p.Name, r.Output, p.Output)
	}
	w := p.want
	got := [...]int64{r.Instructions, r.FetchCycles, r.DecodeCycles, r.TranslateCycles, r.SemanticCycles, r.TotalCycles}
	exp := [...]int64{w.Instructions, int64(w.FetchCycles), int64(w.DecodeCycles), int64(w.TranslateCycles),
		int64(w.SemanticCycles), int64(w.TotalCycles)}
	if got != exp || r.DTBHitRatio != w.Measured.HD {
		return fmt.Errorf("%s: report (instructions, fetch, decode, translate, semantic, total)=%v dtb_hit_ratio=%v, simulation %v %v",
			p.Name, got, r.DTBHitRatio, exp, w.Measured.HD)
	}
	return nil
}

// verifier checks answers.  It remembers the bytes of each program's last
// verified answer, so a byte-identical repeat costs one comparison instead of
// a decode.  Safe for concurrent use.
type verifier struct {
	progs []*program
	// item selects the /batch/run item form, which carries a status.
	item bool
	seen []atomic.Pointer[[]byte]
}

func newVerifier(progs []*program, item bool) *verifier {
	return &verifier{progs: progs, item: item, seen: make([]atomic.Pointer[[]byte], len(progs))}
}

func (v *verifier) check(p int, body []byte) error {
	if last := v.seen[p].Load(); last != nil && bytes.Equal(*last, body) {
		return nil
	}
	prog := v.progs[p]
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s: undecodable answer: %w", prog.Name, err)
	}
	if v.item && a.Status != 200 {
		return fmt.Errorf("%s: item status %d: %s", prog.Name, a.Status, a.Error)
	}
	if a.Report == nil {
		return fmt.Errorf("%s: answer carries no report", prog.Name)
	}
	if err := prog.check(a.Report); err != nil {
		return err
	}
	b := bytes.Clone(body)
	v.seen[p].Store(&b)
	return nil
}

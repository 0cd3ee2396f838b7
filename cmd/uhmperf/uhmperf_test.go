package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSequencesAreSeededAndInRange(t *testing.T) {
	for name, gen := range map[string]func(int64, int) []int32{"uniform": uniformSequence, "zipf": zipfSequence} {
		a, b, c := gen(7, 40), gen(7, 40), gen(8, 40)
		if !slices.Equal(a, b) {
			t.Errorf("%s: same seed gave different sequences", name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
		counts := make([]int, 40)
		for _, p := range a {
			if p < 0 || p >= 40 {
				t.Fatalf("%s: index %d outside [0, 40)", name, p)
			}
			counts[p]++
		}
		if name == "zipf" && slices.Max(counts) != counts[0] {
			t.Errorf("zipf: index 0 drawn %d times, the most drawn %d", counts[0], slices.Max(counts))
		}
	}
}

func TestProgramsAreSeededAndStratified(t *testing.T) {
	const n = 10 // every kernel stratum once, the first two of every other archetype
	a, _, err := servedPrograms(3, n)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := servedPrograms(3, n)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := servedPrograms(4, n)
	if err != nil {
		t.Fatal(err)
	}
	drawn := map[string]int{}
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Errorf("program %d differs between two draws of seed 3", i)
		}
		if a[i].Source == c[i].Source {
			t.Errorf("program %d is the same for seeds 3 and 4", i)
		}
		if a[i].Archetype != servedMix[i%len(servedMix)] {
			t.Errorf("program %d is a %s, want %s", i, a[i].Archetype, servedMix[i%len(servedMix)])
		}
		k := drawn[a[i].Archetype]
		drawn[a[i].Archetype]++
		if got, want := stratum(a[i].OracleSteps), k%(len(strata)-1); got != want {
			t.Errorf("program %d (%s number %d) runs %d oracle steps, stratum %d; want stratum %d",
				i, a[i].Archetype, k, a[i].OracleSteps, got, want)
		}
	}
	for steps, want := range map[int64]int{1999: -1, 2000: 0, 2600: 0, 2601: 1, 8000: 3, 8001: -1} {
		if got := stratum(steps); got != want {
			t.Errorf("stratum(%d) = %d, want %d", steps, got, want)
		}
	}
}

// TestLoopsSendTheSeededSequence checks that request i always names program
// seq[i], however fast or unevenly the server answers.
func TestLoopsSendTheSeededSequence(t *testing.T) {
	seq := uniformSequence(5, 9)
	for _, jitter := range []bool{false, true} {
		var mu sync.Mutex
		got := map[int64]int{}
		var n atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if jitter && n.Add(1)%3 == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			var body struct{ I, P int64 }
			_ = json.NewDecoder(r.Body).Decode(&body)
			mu.Lock()
			got[body.I] = int(body.P)
			mu.Unlock()
		}))
		c := newClient(conns)
		do := func(i int64, buf *bytes.Buffer) (int64, int64, error) {
			_, err := post(c, srv.URL, []byte(fmt.Sprintf(`{"I":%d,"P":%d}`, i, at(seq, i))), buf)
			return 1, 0, err
		}
		st := closedLoop(context.Background(), conns, 100*time.Millisecond, do, nil)
		c.CloseIdleConnections()
		srv.Close()
		if st.failed != 0 || int64(len(got)) != st.requests || st.requests == 0 {
			t.Fatalf("jitter=%v: %d requests, %d failed, %d received", jitter, st.requests, st.failed, len(got))
		}
		for i, p := range got {
			if p != int(seq[i]) {
				t.Errorf("jitter=%v: request %d named program %d, sequence says %d", jitter, i, p, seq[i])
			}
		}
	}
}

// TestOpenLoopCountsStalls checks that a stalled request delays the ones due
// behind it, that their latency counts from when they were due, and that the
// generator's lag shows the stall.
func TestOpenLoopCountsStalls(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	do := func(i int64, buf *bytes.Buffer) (int64, int64, error) {
		_, err := get(c, srv.URL, buf)
		return 1, 0, err
	}
	// Request i is due at i*10ms; request 2 stalls from 20ms to 320ms.
	st := openLoop(context.Background(), 1, 100, 600*time.Millisecond, do, nil)
	if st.requests != 60 || st.failed != 0 {
		t.Fatalf("%d requests, %d failed; want 60 and 0", st.requests, st.failed)
	}
	// With one connection, lat and lag are in request order.
	if st.lat[2] < ms(stall) {
		t.Errorf("stalled request took %.1fms, want at least %v", st.lat[2], stall)
	}
	// Request 3 was due at 30ms and could not be sent before ~320ms.
	if want := ms(stall) - 20; st.lat[3] < want || st.lag[3] < want {
		t.Errorf("request behind the stall: latency %.1fms, lag %.1fms; want both at least %.0fms", st.lat[3], st.lag[3], want)
	}
	if lag := newDist(st.lag); lag.q(0.99) < ms(stall)-20 {
		t.Errorf("lag p99 %.1fms does not show the stall", lag.q(0.99))
	}
	// The queue drains: the last requests are on time again.
	if last := st.lag[len(st.lag)-1]; last > 50 {
		t.Errorf("last request %.1fms late; the backlog never drained", last)
	}
}

func TestQuietLeavesOutStolenIntervals(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Four intervals; the hypervisor stole 3 jiffies in the second and 1 in
	// the fourth, more than in the median interval.
	samples := []stealSample{{at(0), 10}, {at(250), 10}, {at(500), 13}, {at(750), 13}, {at(1000), 14}}
	st := &loopStats{}
	for i, end := range []int{100, 300, 600, 700, 900} {
		failed := int64(0)
		if i == 3 {
			failed = 1
		}
		st.record(at(end), float64(i+1), 2, failed, nil)
	}
	q := st.quiet(samples)
	if !slices.Equal(q.lat, []float64{1, 3, 4}) || q.elapsed != 500*time.Millisecond || q.rate() != 10 {
		t.Errorf("kept latencies %v over %v at %g runs/s; want [1 3 4] over 500ms at 10 runs/s", q.lat, q.elapsed, q.rate())
	}
	// With nothing stolen every interval is kept.
	for i := range samples {
		samples[i].steal = 7
	}
	if q := st.quiet(samples); q.requests != 5 || q.elapsed != time.Second {
		t.Errorf("steal-free window kept %d requests over %v; want 5 over 1s", q.requests, q.elapsed)
	}
}

func TestNearestRankAndTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, so sorting is exercised
	}
	d := newDist(xs)
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0.001: 1} {
		if got := d.q(q); got != want {
			t.Errorf("q(%g) = %g, want %g", q, got, want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true}, // exactly 10 beyond p99.9
		{9999, 0.99, true},   // 9 beyond p99.9
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, ok := tailQuantile(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %g, %v; want %g, %v", tc.n, q, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, q) < minBeyond {
			t.Errorf("tailQuantile(%d) = %g leaves %d beyond", tc.n, q, beyond(tc.n, q))
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // runs past the root
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},  // grandchild
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 50},   // inside a ∪ b
		{ID: 7, Parent: 0, Name: "other", Start: 0, End: 7}, // another root
	}
	setSelfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30 - 5, "b": 30, "c": 30, "a1": 5, "d": 15, "other": 7}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("root", 0, 9)
	rec.timed("child", root, 9, func() { time.Sleep(time.Millisecond) })
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Request != 9 {
		t.Fatalf("spans %+v", spans)
	}
	if d := spans[1].End - spans[1].Start; d < int64(time.Millisecond) || spans[0].Self != spans[0].End-spans[0].Start-d {
		t.Errorf("child %dns, root self %dns of %dns", d, spans[0].Self, spans[0].End-spans[0].Start)
	}
}

func TestProcParsing(t *testing.T) {
	// A command name may hold spaces and parentheses; utime=250 and
	// stime=50 ticks are fields 14 and 15.
	stat := "4242 (uhm (d) x) S 1 4242 4242 0 -1 4194560 300 0 0 0 250 50 0 0 20 0 8 0 100 2000000 500"
	if got, err := parseStatCPU(stat); err != nil || got != 3*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 3s", got, err)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := "Name:\tuhmd\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
	if got, err := parseVmRSS(status); err != nil || got != 100000<<10 {
		t.Errorf("parseVmRSS = %d, %v; want %d", got, err, 100000<<10)
	}
	if _, err := parseVmRSS("Name:\tx\n"); err == nil {
		t.Error("parseVmRSS accepted a status without VmRSS")
	}
	if cpu, err := procCPU(0); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	steal, total, err := parseSteal("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n")
	if err != nil || steal != 35 || total != 1000 {
		t.Errorf("parseSteal = %d, %d, %v; want 35, 1000", steal, total, err)
	}
	if _, _, err := parseSteal("intr 1 2 3\n"); err == nil {
		t.Error("parseSteal accepted a stat without a cpu line")
	}
	if rss, err := procRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procRSS(self) = %d, %v", rss, err)
	}
	stop := sampleRSS([]int{os.Getpid()})
	time.Sleep(3 * rssInterval)
	if samples, err := stop(); err != nil || len(samples) < 2 || samples[0] <= 0 {
		t.Errorf("sampleRSS = %v, %v", samples, err)
	}
}

func TestVerifierRejectsWrongAnswers(t *testing.T) {
	progs, _, err := servedPrograms(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mism, err := simulate(progs, 1); err != nil || len(mism) > 0 {
		t.Fatalf("simulate: %v %v", mism, err)
	}
	good := wireOf(progs[0].want)
	encode := func(w reportWire, item bool) []byte {
		a := answer{Report: &w}
		if item {
			a.Status = 200
		}
		b, _ := json.Marshal(a)
		return b
	}
	for _, item := range []bool{false, true} {
		v := newVerifier(progs, item)
		if err := v.check(0, encode(good, item)); err != nil {
			t.Errorf("item=%v: correct answer rejected: %v", item, err)
		}
		// A second, byte-identical answer takes the fast path.
		if err := v.check(0, encode(good, item)); err != nil {
			t.Errorf("item=%v: repeat rejected: %v", item, err)
		}
		for name, mutate := range map[string]func(*reportWire){
			"output":       func(w *reportWire) { w.Output = append(slices.Clone(w.Output), 1) },
			"instructions": func(w *reportWire) { w.Instructions++ },
			"total":        func(w *reportWire) { w.TotalCycles++ },
			"translate":    func(w *reportWire) { w.TranslateCycles-- },
			"dtb hit":      func(w *reportWire) { w.DTBHitRatio += 1e-9 },
		} {
			bad := good
			mutate(&bad)
			if err := v.check(0, encode(bad, item)); err == nil {
				t.Errorf("item=%v: wrong %s accepted", item, name)
			}
		}
	}
	if err := newVerifier(progs, true).check(0, []byte(`{"status":422,"error":"no"}`)); err == nil {
		t.Error("failed item accepted")
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"cmd/uhmperf"}) || !slices.Equal(b.Command, []string{"bash", "cmd/uhmperf/run.sh"}) {
		t.Errorf("command %q, paths %q", b.Command, b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("workloads %v, benchmark runs %v", names, specNames)
	}
	var largest, setup float64
	for i, m := range b.EndToEnd {
		if i >= len(endToEnd) || (metric{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, benchmark reports %+v", i, m, endToEnd[min(i, len(endToEnd)-1)])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end_to_end metrics, benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	if setup != largest {
		t.Errorf("setup_s bound %g, largest %g", setup, largest)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("%d per_layer metrics, benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if i < len(perLayer) && (metric{m.Name, m.Unit, m.Better}) != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, benchmark reports %+v", i, m, perLayer[i])
		}
	}
}

// TestSmoke runs every workload for two seconds, untraced and traced, and
// checks the result line: the exact keys, every metric, and no failures.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs each workload twice")
	}
	for _, sp := range specs {
		for _, traced := range []string{"0", "1"} {
			t.Run(sp.name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", sp.name, "-seed", "1", "-seconds", "2", "-trace", traced}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var got map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatal(err)
				}
				if len(got) != 4 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("line %s", lines[len(lines)-1])
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, present %v", d.name, m, ok)
					}
				}
			})
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// metric names one reported number.  BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatches keeps the two in step.
type metric struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metric{
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_p95_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run, on every workload.
var perLayer = []metric{
	{"http.overhead_p50_us", "us", "lower"},
	{"backend.cpu_us_per_op", "us", "lower"},
	{"backend.gc_per_kop", "1/kop", "lower"},
	{"router.overhead_p50_us", "us", "lower"},
	{"router.cpu_us_per_run", "us", "lower"},
	{"service.request_p50_us", "us", "lower"},
	{"service.request_p99_us", "us", "lower"},
	{"registry.source_hit_us", "us", "lower"},
	{"registry.source_miss_us", "us", "lower"},
	{"registry.hit_ratio", "ratio", "higher"},
	{"registry.evictions_per_krun", "1/krun", "lower"},
	{"registry.bytes_mb", "MiB", "lower"},
	{"pool.acquire_hit_us", "us", "lower"},
	{"pool.acquire_miss_us", "us", "lower"},
	{"pool.hit_ratio", "ratio", "higher"},
	{"pool.replayer_mb", "MiB", "lower"},
	{"unbudgeted_mb", "MiB", "lower"},
	{"build.encode_predecode_us", "us", "lower"},
	{"build.closure_compile_us", "us", "lower"},
	{"trace.record_us", "us", "lower"},
	{"derive.conventional_ns_per_instr", "ns/instr", "lower"},
	{"derive.dtb_ns_per_instr", "ns/instr", "lower"},
	{"derive.cache_ns_per_instr", "ns/instr", "lower"},
	{"derive.expanded_ns_per_instr", "ns/instr", "lower"},
	{"derive.compiled_ns_per_instr", "ns/instr", "lower"},
	{"replay.conventional_ns_per_instr", "ns/instr", "lower"},
	{"replay.dtb_ns_per_instr", "ns/instr", "lower"},
	{"replay.cache_ns_per_instr", "ns/instr", "lower"},
	{"replay.expanded_ns_per_instr", "ns/instr", "lower"},
	{"replay.compiled_ns_per_instr", "ns/instr", "lower"},
	{"sim.dtb_hit_ratio", "ratio", "higher"},
	{"sim.cycles_per_instr", "cycles/instr", "lower"},
	{"sweep.program_ms", "ms", "lower"},
	{"gen.generate_us", "us", "lower"},
	{"oracle.evaluate_us", "us", "lower"},
	{"sweep.encode_us", "us", "lower"},
	{"sweep.unattributed_share", "ratio", "lower"},
	{"fleet.builds_delta", "count", "lower"},
	{"loadgen.cpu_share", "ratio", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"trace.unattributed_share", "ratio", "lower"},
}

// result is one workload run.  The -o file holds it whole; the last line of
// standard output holds its resultLine.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	ErrorRate float64            `json:"error_rate"`
	Metrics   map[string]float64 `json:"metrics"`
	Diag      map[string]any     `json:"diagnostics"`
	Errors    []string           `json:"errors,omitempty"`
}

func newResult(name string, e *env) *result {
	return &result{Workload: name, Seed: e.seed, Seconds: e.window.Seconds(), Trace: e.traced,
		Metrics: map[string]float64{}, Diag: map[string]any{}}
}

// maxNotes bounds the failure messages a result keeps.
const maxNotes = 20

func (r *result) note(msg string) {
	if len(r.Errors) < maxNotes {
		r.Errors = append(r.Errors, msg)
	}
}

// countRuns adds runs attempted, of which failed went wrong; err describes
// the first.
func (r *result) countRuns(runs, failed int64, err error) {
	r.Attempted += runs
	r.Failed += failed
	if err != nil {
		r.note(err.Error())
	}
}

// record adds one checked answer.
func (r *result) record(err error) {
	if err != nil {
		r.countRuns(1, 1, err)
	} else {
		r.countRuns(1, 0, nil)
	}
}

func (r *result) count(st *loopStats) {
	r.Attempted += st.runs
	r.Failed += st.failed
	for _, e := range st.errs {
		r.note(e)
	}
}

// violate adds failed checks, one per message.
func (r *result) violate(msgs ...string) {
	for _, m := range msgs {
		r.countRuns(1, 1, errors.New(m))
	}
}

func (r *result) finish() {
	r.Correct = r.Failed == 0 && len(r.Errors) == 0
	r.ErrorRate = ratio(float64(r.Failed), float64(r.Attempted))
}

// defs are the metrics a run of this kind reports.
func (r *result) defs() []metric {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// resultLine is the last line of standard output: exactly the keys
// correct, attempted, failed and metrics, each metric with its unit.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds a result into the line, its metrics named prefix+name.
func (l *resultLine) add(r *result, prefix string) error {
	l.Correct = l.Correct && r.Correct
	l.Attempted += r.Attempted
	l.Failed += r.Failed
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		}
		l.Metrics[prefix+d.name] = metricValue{v, d.unit}
	}
	return nil
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("uhmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "warm, churn, fleet, sweep, or all (each in its own process)")
	fs.Int64Var(&o.seed, "seed", 42, "seed of the generated programs and request sequences")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced layer breakdown and reports the per-layer metrics")
	fs.StringVar(&o.out, "o", "", "also write the full results, with diagnostics, to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, known := specByName(o.workload)
	switch {
	case !known && o.workload != "all":
		fmt.Fprintf(stderr, "uhmperf: -workload must be warm, churn, fleet, sweep or all (got %q)\n", o.workload)
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "uhmperf: -seconds must be at least 1")
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(stderr, "uhmperf: -trace must be 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var results []*result
	var err error
	if o.workload == "all" {
		results, err = runAll(ctx, o, stderr)
	} else {
		var res *result
		if res, err = runOne(ctx, o, stderr); err == nil {
			results = []*result{res}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "uhmperf:", err)
		return 1
	}
	printTable(stdout, results)
	if o.out != "" {
		if err := writeJSON(o.out, results); err != nil {
			fmt.Fprintln(stderr, "uhmperf:", err)
			return 1
		}
	}
	line, err := summaryLine(results)
	if err != nil {
		fmt.Fprintln(stderr, "uhmperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, r := range results {
		if !r.Correct {
			for _, e := range r.Errors {
				fmt.Fprintf(stderr, "uhmperf: %s: %s\n", r.Workload, e)
			}
			return 1
		}
	}
	return 0
}

// runOne builds uhmd and runs one workload in this process.
func runOne(ctx context.Context, o options, stderr io.Writer) (*result, error) {
	sp, _ := specByName(o.workload)
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "uhmperf")
	bin := filepath.Join(base, "bin", "uhmd")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/uhmd")
	build.Dir, build.Stdout, build.Stderr = root, stderr, stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building cmd/uhmd: %w", err)
	}
	runDir := filepath.Join(base, "run-"+sp.name)
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{
		ctx: ctx, seed: o.seed, window: time.Duration(o.seconds) * time.Second, traced: o.trace == 1,
		uhmd: bin, runDir: runDir,
		log: func(format string, args ...any) { fmt.Fprintf(stderr, "uhmperf: "+format+"\n", args...) },
	}
	if e.traced {
		e.rec = newRecorder()
	}
	steal0, total0, err0 := hostSteal()
	res, err := sp.run(e)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The share of the machine's CPU time the hypervisor gave to others
	// during the run; a high share explains a slow run.
	if steal1, total1, err1 := hostSteal(); err0 == nil && err1 == nil {
		res.Diag["host_steal_share"] = ratio(float64(steal1-steal0), float64(total1-total0))
	}
	res.finish()
	if e.traced {
		path := filepath.Join(runDir, "trace.json")
		if err := writeTrace(path, res, e.rec.snapshot()); err != nil {
			return nil, err
		}
		res.Diag["trace_file"] = path
	}
	return res, nil
}

// runAll runs each workload in a child process of its own, so that memory
// and collector state do not carry from one workload to the next.
func runAll(ctx context.Context, o options, stderr io.Writer) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, sp := range specs {
		out := filepath.Join(root, ".bench_build", "uhmperf", "all-"+sp.name+".json")
		if err := os.Remove(out); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		cmd := exec.CommandContext(ctx, self, "-workload", sp.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-o", out)
		cmd.Stdout, cmd.Stderr = io.Discard, stderr
		// A child that found wrong answers exits 1 after writing its results.
		if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			return nil, fmt.Errorf("%s produced no results: %w", sp.name, err)
		}
		var rs []*result
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		results = append(results, rs...)
	}
	return results, nil
}

// summaryLine is the resultLine of one result; for several, the same
// keys with each metric prefixed by its workload.
func summaryLine(results []*result) ([]byte, error) {
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		prefix := r.Workload + "."
		if len(results) == 1 {
			prefix = ""
		}
		if err := line.add(r, prefix); err != nil {
			return nil, err
		}
	}
	return json.Marshal(line)
}

func writeJSON(path string, results []*result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints the end-to-end metrics one row per workload, or the
// per-layer metrics one column per workload, then each run's diagnostics.
func printTable(w io.Writer, results []*result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	defs := results[0].defs()
	if !results[0].Trace {
		fmt.Fprint(tw, "workload")
		for _, d := range defs {
			fmt.Fprintf(tw, "\t%s [%s]", d.name, d.unit)
		}
		fmt.Fprintln(tw, "\terror_rate")
		for _, r := range results {
			fmt.Fprint(tw, r.Workload)
			for _, d := range defs {
				fmt.Fprintf(tw, "\t%.4g", r.Metrics[d.name])
			}
			fmt.Fprintf(tw, "\t%d/%d\n", r.Failed, r.Attempted)
		}
	} else {
		fmt.Fprint(tw, "metric\tunit")
		for _, r := range results {
			fmt.Fprintf(tw, "\t%s", r.Workload)
		}
		fmt.Fprintln(tw)
		for _, d := range defs {
			fmt.Fprintf(tw, "%s\t%s", d.name, d.unit)
			for _, r := range results {
				fmt.Fprintf(tw, "\t%.4g", r.Metrics[d.name])
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprint(tw, "error_rate\t")
		for _, r := range results {
			fmt.Fprintf(tw, "\t%d/%d", r.Failed, r.Attempted)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, r := range results {
		var b strings.Builder
		for _, k := range slices.Sorted(maps.Keys(r.Diag)) {
			fmt.Fprintf(&b, " %s=%v", k, r.Diag[k])
		}
		fmt.Fprintf(w, "%s:%s\n", r.Workload, b.String())
	}
}

// repoRoot is the nearest directory at or above the working directory that
// holds go.mod and cmd/uhmd.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "cmd", "uhmd", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no directory holding go.mod and cmd/uhmd at or above the working directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uhm/internal/core"
	"uhm/internal/service"
	"uhm/internal/workload"
	"uhm/internal/workload/gen"
)

// generatedPrograms draws n archetype programs, cycling the archetypes, each
// the first of its archetype's seeds past the previous one whose oracle run
// takes 2,000 to 8,000 steps: the size band the benchmark serves.
func generatedPrograms(tb testing.TB, n int) []*gen.Program {
	tb.Helper()
	names := workload.ArchetypeNames()
	next := make(map[string]int64)
	var out []*gen.Program
	for len(out) < n {
		name := names[len(out)%len(names)]
		for {
			next[name]++
			if next[name] > 10_000 {
				tb.Fatalf("no %s program of 2,000..8,000 steps", name)
			}
			g, err := workload.GenerateArchetype(name, next[name])
			if err == nil && g.OracleSteps >= 2000 && g.OracleSteps <= 8000 {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// fuzzItem is one batch item of FuzzRouterBatch's pool.  fields is its JSON
// text without the strategy, which /batch/compare refuses and so drops; prog
// names the program the item builds when it is answered 200 ("" if none).
type fuzzItem struct {
	fields, strategy, prog string
}

func (it fuzzItem) body(compare bool) string {
	if compare || it.strategy == "" {
		return "{" + it.fields + "}"
	}
	return "{" + it.fields + `,"strategy":"` + it.strategy + `"}`
}

// routerBatchPool builds the pool: generated programs, two built-ins, one
// generated source re-spelled with other JSON escapes (a different body, the
// same program), and items a backend answers with a per-item error.
func routerBatchPool(tb testing.TB) []fuzzItem {
	tb.Helper()
	quote := func(s string) string {
		q, err := json.Marshal(s)
		if err != nil {
			tb.Fatal(err)
		}
		return string(q)
	}
	var pool []fuzzItem
	respelled := -1
	for i, g := range generatedPrograms(tb, 4) {
		pool = append(pool, fuzzItem{
			fields:   `"source":` + quote(g.Source) + `,"name":` + quote(g.Name),
			strategy: "dtb",
			prog:     g.Name,
		})
		if respelled < 0 && strings.Contains(g.Source, "/") && strings.Contains(g.Source, ";") {
			respelled = i
		}
	}
	if respelled < 0 {
		tb.Fatal("no generated program has a / to re-spell")
	}
	escaped := pool[respelled]
	escaped.fields = strings.NewReplacer("/", `\/`, ";", `\u003b`).Replace(escaped.fields)
	return append(pool, escaped,
		fuzzItem{fields: `"workload":"fib"`, strategy: "compiled", prog: "fib"},
		fuzzItem{fields: `"workload":"sieve","level":"mem2"`, strategy: "cache", prog: "sieve/mem2"},
		fuzzItem{fields: `"workload":"no-such-workload"`, strategy: "dtb"},                     // 422
		fuzzItem{fields: `"source":"this is not minilang"`, strategy: "dtb"},                   // 422
		fuzzItem{fields: `"workload":"fib"`, strategy: "quantum", prog: "fib"},                 // 400 on run
		fuzzItem{fields: `"workload":"fib","source":"program x; begin end."`, strategy: "dtb"}, // 400
		fuzzItem{fields: `"level":"stack"`, strategy: "dtb"},                                   // 400
		fuzzItem{fields: fmt.Sprintf(`"workload":"sieve","max_instructions":%d`,
			core.DefaultConfig().MaxInstructions+1), strategy: "dtb"}, // 400
	)
}

// FuzzRouterBatch is the router's batch split and merge as a property: any
// envelope of pool items, routed through a two-backend fleet, is answered 200
// item for item, each item byte-identical to that item's answer from one
// backend alone, with failed counting the non-200 items; and the fleet has
// built each distinct program it was sent exactly once, escape re-spellings
// included.  Each input byte selects a pool item; at most 12 are sent.
func FuzzRouterBatch(f *testing.F) {
	front, svcs, _ := newTestFleet(f, 2)
	ref := httptest.NewServer(newServer(service.New(service.Options{})))
	f.Cleanup(ref.Close)
	pool := routerBatchPool(f)
	all := make([]byte, len(pool))
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(all[:12])
	f.Add(all[len(all)-12:])
	f.Add([]byte{4, 0, 1, 2, 3, 4})
	f.Add([]byte{5})

	// The reference backend's answers, by path and item, and the programs the
	// fleet has been sent so far.
	alone := make(map[string]json.RawMessage)
	built := make(map[string]bool)
	f.Fuzz(func(t *testing.T, sel []byte) {
		if len(sel) == 0 {
			return
		}
		sel = sel[:min(len(sel), 12)]
		for _, path := range []string{"/batch/run", "/batch/compare"} {
			compare := path == "/batch/compare"
			items := make([]string, len(sel))
			for i, b := range sel {
				items[i] = pool[int(b)%len(pool)].body(compare)
			}
			got := postBatch(t, front.URL+path, items)
			// Book what was sent before checking what came back, so one
			// failure does not leave the build count wrong for later inputs.
			want := make([]json.RawMessage, len(items))
			failed := 0
			for i, item := range items {
				w, ok := alone[path+item]
				if !ok {
					a := postBatch(t, ref.URL+path, items[i:i+1])
					if len(a.Items) != 1 {
						t.Fatalf("%s alone answered %d items for 1", path, len(a.Items))
					}
					w = a.Items[0]
					alone[path+item] = w
				}
				want[i] = w
				var st struct{ Status int }
				if err := json.Unmarshal(w, &st); err != nil {
					t.Fatal(err)
				}
				if st.Status != http.StatusOK {
					failed++
				} else if p := pool[int(sel[i])%len(pool)].prog; p != "" {
					built[p] = true
				}
			}
			if len(got.Items) != len(items) {
				t.Fatalf("%s answered %d items for %d", path, len(got.Items), len(items))
			}
			for i := range items {
				if !bytes.Equal(got.Items[i], want[i]) {
					t.Fatalf("%s item %d of %d: routed\n%s\nalone\n%s", path, i, len(items), got.Items[i], want[i])
				}
			}
			if got.Failed != failed {
				t.Fatalf("%s failed = %d, want %d", path, got.Failed, failed)
			}
			var builds int64
			for _, svc := range svcs {
				st := svc.Stats()
				builds += st.Registry.Builds - st.Registry.BuildErrors
			}
			if builds != int64(len(built)) {
				t.Fatalf("fleet completed %d builds for %d distinct programs", builds, len(built))
			}
		}
	})
}

// batchAnswer is a batch response with its items kept as their bytes.
type batchAnswer struct {
	Items  []json.RawMessage `json:"items"`
	Failed int               `json:"failed"`
}

// postBatch posts items as one batch envelope and decodes the 200 answer.
func postBatch(t testing.TB, url string, items []string) batchAnswer {
	t.Helper()
	status, data := postJSON(t, url, `{"items":[`+strings.Join(items, ",")+`]}`)
	if status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, status, data)
	}
	var a batchAnswer
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatalf("%s: %v: %s", url, err, data)
	}
	return a
}

package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"uhm/internal/core"
	"uhm/internal/sim"
)

// Enumerations travel as their String() names (the same names the CLI flags
// use), reports as a flat summary of sim.Report.

// RunRequest selects a program and a point of the simulation space.  Exactly
// one of Workload (a built-in) or Source (submitted MiniLang text) must be
// set.  Level, Degree and Strategy default like the uhmrun flags: stack,
// huffman, dtb.
type RunRequest struct {
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
	// Name labels submitted source in reports and logs (default "submitted").
	Name     string `json:"name,omitempty"`
	Level    string `json:"level,omitempty"`
	Degree   string `json:"degree,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// MaxInstructions optionally bounds the run (0 selects the default).
	MaxInstructions int64 `json:"max_instructions,omitempty"`
}

// Report is the wire form of one simulation report.
type Report struct {
	Program         string  `json:"program"`
	Level           string  `json:"level"`
	Strategy        string  `json:"strategy"`
	Degree          string  `json:"degree"`
	Output          []int64 `json:"output"`
	Instructions    int64   `json:"instructions"`
	FetchCycles     int64   `json:"fetch_cycles"`
	DecodeCycles    int64   `json:"decode_cycles"`
	TranslateCycles int64   `json:"translate_cycles"`
	SemanticCycles  int64   `json:"semantic_cycles"`
	TotalCycles     int64   `json:"total_cycles"`
	PerInstruction  float64 `json:"cycles_per_instruction"`
	StaticBits      int     `json:"static_bits"`
	CodebookBits    int     `json:"codebook_bits"`
	ExpandedWords   int     `json:"expanded_words,omitempty"`
	CompiledWords   int     `json:"compiled_words,omitempty"`
	// The hit ratios are always present (a measured 0.0 is a legitimate
	// value, distinct from "not applicable"); they are meaningful only for
	// the dtb and cache strategies respectively.
	DTBHitRatio   float64 `json:"dtb_hit_ratio"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// Derived reports that the costs were derived from the program's shared
	// execution trace rather than a full simulation (the two are
	// field-for-field identical; this records which path served the request).
	Derived bool `json:"derived"`
}

// NewReport renders one report of the named program at the given level.
func NewReport(program string, level core.Level, rep *sim.Report) Report {
	return Report{
		Program:         program,
		Level:           level.String(),
		Strategy:        rep.Strategy.String(),
		Degree:          rep.Degree.String(),
		Output:          rep.Output,
		Instructions:    rep.Instructions,
		FetchCycles:     int64(rep.FetchCycles),
		DecodeCycles:    int64(rep.DecodeCycles),
		TranslateCycles: int64(rep.TranslateCycles),
		SemanticCycles:  int64(rep.SemanticCycles),
		TotalCycles:     int64(rep.TotalCycles),
		PerInstruction:  rep.PerInstruction,
		StaticBits:      rep.StaticBits,
		CodebookBits:    rep.CodebookBits,
		ExpandedWords:   rep.ExpandedWords,
		CompiledWords:   rep.CompiledWords,
		DTBHitRatio:     rep.Measured.HD,
		CacheHitRatio:   rep.Measured.HC,
		Derived:         rep.Derived,
	}
}

// RunResponse wraps a single report.
type RunResponse struct {
	Report Report `json:"report"`
}

// CompareResponse carries every organisation's report plus the equivalence
// verdict.  On divergence Agree is false and Error names the mismatch; the
// reports are still included so the client can diff them.
type CompareResponse struct {
	Output  []int64  `json:"output"`
	Agree   bool     `json:"agree"`
	Error   string   `json:"error,omitempty"`
	Reports []Report `json:"reports"`
}

// BatchRequest carries many runs in one envelope: one decode, one admission
// slot, one response write for the whole batch.  Items are ordinary
// RunRequests; for /batch/compare the per-item strategy must be empty, as on
// /v1/compare.
type BatchRequest struct {
	Items []RunRequest `json:"items"`
}

// BatchRunItem is one item's outcome in a /batch/run response.  Status is the
// HTTP status the item would have received as a standalone /v1/run request;
// exactly one of Report (200) or Error (anything else) is set.  One bad item
// fails itself, never its siblings or the envelope.
type BatchRunItem struct {
	Status int     `json:"status"`
	Report *Report `json:"report,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// BatchRunResponse answers /batch/run: per-item outcomes in request order,
// plus the failed count so clients need not rescan.
type BatchRunResponse struct {
	Items  []BatchRunItem `json:"items"`
	Failed int            `json:"failed"`
}

// BatchCompareItem is one item's outcome in a /batch/compare response: a
// standalone CompareResponse tagged with the item's HTTP status.
type BatchCompareItem struct {
	Status  int      `json:"status"`
	Output  []int64  `json:"output,omitempty"`
	Agree   bool     `json:"agree"`
	Error   string   `json:"error,omitempty"`
	Reports []Report `json:"reports,omitempty"`
}

// BatchCompareResponse answers /batch/compare.
type BatchCompareResponse struct {
	Items  []BatchCompareItem `json:"items"`
	Failed int                `json:"failed"`
}

// ConformanceRequest checks one program against the full differential
// cross-product: either submitted Source, or a Seed for the built-in
// generator (the pinned regression seeds, say).
type ConformanceRequest struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
	Seed   *int64 `json:"seed,omitempty"`
}

// ConformanceResponse answers /v1/conformance: the divergences found, if any.
type ConformanceResponse struct {
	Name        string   `json:"name"`
	Conforms    bool     `json:"conforms"`
	Divergences []string `json:"divergences,omitempty"`
}

// ExperimentRequest names one of uhmbench's experiments; Workload optionally
// overrides the default workload set of the figure experiments.
type ExperimentRequest struct {
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
}

// ExperimentResponse carries one experiment's rendered text.
type ExperimentResponse struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// ErrorResponse is the JSON body of a failed request.
type ErrorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the request's X-Request-ID (or the server-generated
	// one) so a failed call can be correlated with its access log line.
	RequestID string `json:"request_id,omitempty"`
}

// Request-field parsers: an omitted field selects the same default the
// uhmrun flags do; everything else resolves through core's shared parsers.

func ParseLevel(name string) (core.Level, error) {
	if name == "" {
		return core.LevelStack, nil
	}
	return core.ParseLevel(name)
}

func ParseDegree(name string) (core.Degree, error) {
	if name == "" {
		return core.DefaultConfig().Degree, nil
	}
	return core.ParseDegree(name)
}

func ParseStrategy(name string) (core.Strategy, error) {
	if name == "" {
		return core.WithDTB, nil
	}
	return core.ParseStrategy(name)
}

// jsonBuf pairs a response buffer with a json.Encoder bound to it, so the
// warm path reuses both instead of allocating an encoder (and growing a fresh
// buffer) per response.  Encoding into the buffer first also yields an exact
// Content-Length, sparing the chunked-transfer framing on every response.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	jb.enc.SetIndent("", "  ")
	return jb
}}

// jsonBufMaxRecycle caps the buffer capacity worth keeping: a huge batch
// response should not pin its peak allocation in the pool forever.
const jsonBufMaxRecycle = 1 << 20

// WriteJSON answers v as indented JSON with an exact Content-Length.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		// The wire types are plain data; encoding them cannot fail.  Answer
		// something structured anyway rather than an empty body.
		jsonBufPool.Put(jb)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, "response encoding failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(jb.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(jb.buf.Bytes())
	if jb.buf.Cap() <= jsonBufMaxRecycle {
		jsonBufPool.Put(jb)
	}
}

// WriteError answers err as an ErrorResponse; a non-empty requestID tags it.
func WriteError(w http.ResponseWriter, status int, err error, requestID string) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error(), RequestID: requestID})
}

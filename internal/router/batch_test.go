package router

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzSplitEnvelope: splitEnvelope accepts exactly the bodies json.Unmarshal
// reads into {"items":[]json.RawMessage} with at least one item, finds the
// same bytes for each item, and places each item as its own bytes would be
// placed alone.
func FuzzSplitEnvelope(f *testing.F) {
	for _, body := range []string{
		`{"items":[{"workload":"fib"},{"source":"program p; begin end.","level":"mem2"}]}`,
		" { \"ITEMS\" :\n[ 1 , \"x\" ,null,{\"workload\":5}, {\"Workload\":\"sieve\"} ] , \"other\": {\"items\": [2]} }\t",
		`{"items":[{"source":"program p; begin end.","strategy":"dtb"},{"source":"program p; begin end."}]}`,
		`{"items":[{"workload":"fib","max_instructions":"many"},{"workload":"fib","level":"mem9"}]}`,
		`{"items":[1],"items":null}`,
		`{"items":null,"iTeMs":[{}]}`,
		`{"items":[1],"items":[]}`,
		`{"items":[1],"itemſ":[2,3]}`,
		`{"items":{}}`,
		`{"items":5,"items":[1]}`,
		`{"items":[1]} x`,
		`{"items":[1]}{}`,
		`{"items":[1]}]`,
		`{"items":[1,]}`,
		`{"items":[1],}`,
		`{"items":[1]`,
		`{"items":[1}`,
		`{1:[1]}`,
		`[{"items":[1]}]`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(checkSplit)
}

// TestSplitEnvelopeDepthLimit: a value within encoding/json's depth limit of
// 10,000 on its own may not be within it inside an envelope: an item 9,999
// deep, or another key's value 10,000 deep.  Such envelopes are refused, as
// json.Unmarshal refuses them; one level less is not.  (As fuzz seeds,
// inputs this long stall the fuzzer's minimisation.)
func TestSplitEnvelopeDepthLimit(t *testing.T) {
	nested := func(depth int) string { return strings.Repeat("[", depth) + strings.Repeat("]", depth) }
	for _, depth := range []int{9_998, 9_999} {
		checkSplit(t, []byte(`{"items":[`+nested(depth)+`]}`))
		checkSplit(t, []byte(`{"other":`+nested(depth+1)+`,"items":[1]}`))
	}
}

// checkSplit is FuzzSplitEnvelope's property for one body.
func checkSplit(t *testing.T, body []byte) {
	var env struct {
		Items []json.RawMessage `json:"items"`
	}
	want := json.Unmarshal(body, &env) == nil && len(env.Items) > 0
	items, ok := splitEnvelope(body)
	if ok != want {
		t.Fatalf("splitEnvelope(%.200q) = %v, json.Unmarshal: %v", body, ok, want)
	}
	if !ok {
		return
	}
	if len(items) != len(env.Items) {
		t.Fatalf("splitEnvelope(%.200q): %d items, json.Unmarshal: %d", body, len(items), len(env.Items))
	}
	for i, it := range items {
		if !bytes.Equal(it.raw, env.Items[i]) {
			t.Fatalf("item %d: %.200q, json.Unmarshal: %.200q", i, it.raw, env.Items[i])
		}
		var p placement
		err := json.Unmarshal(it.raw, &p)
		if want := placementHash(it.raw, p, err); it.hash != want {
			t.Fatalf("item %d (%.200q) placed at %x, alone at %x", i, it.raw, it.hash, want)
		}
	}
}

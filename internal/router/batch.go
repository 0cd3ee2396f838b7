package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uhm/internal/wire"
)

// envItem is a batch item: the bytes the client sent and its ring position.
type envItem struct {
	raw  json.RawMessage
	hash uint64
}

// splitEnvelope walks a batch body once, finding each item's bytes and ring
// position.  It accepts exactly the bodies json.Unmarshal reads into
// {"items":[]json.RawMessage} with at least one item.
func splitEnvelope(body []byte) ([]envItem, bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return nil, false
	}
	var items []envItem
	// Decode counts nesting from the value, Unmarshal from the body: only a
	// value of 19,998 bytes or more can be near encoding/json's limit of 10,000.
	long := false
	for dec.More() {
		t, err := dec.Token()
		if key, _ := t.(string); err != nil || !strings.EqualFold(key, "items") {
			at := dec.InputOffset()
			if err != nil || dec.Decode(new(json.RawMessage)) != nil {
				return nil, false
			}
			long = long || dec.InputOffset()-at >= 19_998
			continue
		}
		items = items[:0] // a later items key, null included, replaces earlier items
		if t, err = dec.Token(); t == nil && err == nil {
			continue
		} else if t != json.Delim('[') {
			return nil, false
		}
		for end := dec.InputOffset(); dec.More(); {
			var p placement
			err := dec.Decode(&p)
			if err != nil && !errors.As(err, new(*json.UnmarshalTypeError)) {
				return nil, false
			}
			raw := bytes.TrimLeft(body[end:dec.InputOffset()], ", \t\r\n")
			end = dec.InputOffset()
			long = long || len(raw) >= 19_998
			items = append(items, envItem{raw: raw, hash: placementHash(raw, p, err)})
		}
		if _, err := dec.Token(); err != nil {
			return nil, false
		}
	}
	_, err := dec.Token()
	_, eof := dec.Token()
	return items, err == nil && eof == io.EOF && len(items) > 0 && (!long || json.Valid(body))
}

// splice writes {"items":[, then item(0) to item(n-1) joined by commas, then
// tail, copying each item's bytes verbatim into one exactly sized buffer.
func splice(n int, item func(k int) []byte, tail string) []byte {
	size := len(`{"items":[`) + n + len(tail)
	for k := range n {
		size += len(item(k))
	}
	buf := append(make([]byte, 0, size), `{"items":[`...)
	for k := range n {
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, item(k)...)
	}
	return append(buf, tail...)
}

// handleBatch splits a batch envelope by key owner, forwards the per-owner
// sub-batches concurrently, and merges the per-item answers back into
// request order.  Placement is per item, so a batch mixing many programs
// still builds each of them on exactly one backend fleet-wide.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	items, ok := splitEnvelope(body)
	if !ok {
		// Malformed or empty envelope: one backend answers the whole thing
		// with the same error a single node would give.
		rt.forward(w, r, body, rt.ring.OwnersFromHash(bodyHash(body)))
		return
	}

	groups := make(map[string][]int)
	for i, it := range items {
		owner := rt.firstHealthy(rt.ring.OwnersFromHash(it.hash))
		groups[owner] = append(groups[owner], i)
	}

	results := make([]json.RawMessage, len(items))
	var failed atomic.Int64
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			rt.sendSubBatch(r, items, idxs, owner, results, &failed, len(rt.ring.Backends())+1)
		}(owner, idxs)
	}
	wg.Wait()

	rt.proxied.Add(1)
	tail := `],"failed":` + strconv.FormatInt(failed.Load(), 10) + "}\n"
	wire.WriteBody(w, http.StatusOK, splice(len(results), func(k int) []byte { return results[k] }, tail))
}

// firstHealthy picks the first healthy backend of an owner list ("" when
// the whole fleet is down, which routes the group to the fallback).
func (rt *Router) firstHealthy(owners []string) string {
	for _, b := range owners {
		if rt.health.isHealthy(b) {
			return b
		}
	}
	return ""
}

// sendSubBatch delivers one owner's items, re-splitting across the ring's
// successors when the owner dies mid-flight.  With no backend left to try —
// the fleet is down, or budget is spent — the local fallback is the last
// owner, and its answer merges through the same tail.  budget bounds the
// recursion (each level ejects at least one backend, so backends+1 always
// suffices); every exit fills results[idx] for each idx — no item is ever
// dropped.
func (rt *Router) sendSubBatch(r *http.Request, items []envItem, idxs []int, owner string, results []json.RawMessage, failed *atomic.Int64, budget int) {
	sub := splice(len(idxs), func(k int) []byte { return items[idxs[k]].raw }, "]}")
	local := owner == "" || budget <= 0
	var resp *bufferedResponse
	var err error
	if local {
		resp, err = rt.serveLocal(r, sub)
	} else {
		resp, err = rt.try(r, owner, sub)
	}
	switch {
	case err == errBackendSaturated:
		rt.rejected.Add(1)
		rt.failGroup(idxs, results, failed, http.StatusServiceUnavailable,
			fmt.Sprintf("backend %s at in-flight cap", owner))
		return
	case err != nil && local:
		rt.failGroup(idxs, results, failed, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		// The owner died with our sub-batch: eject it and re-place every
		// item on the survivors (they may now split across several owners).
		if rt.health.eject(owner, time.Now()) {
			rt.logf("router: backend %s ejected (%v)", owner, err)
		}
		rt.retries.Add(1)
		regroups := make(map[string][]int)
		for _, idx := range idxs {
			next := rt.firstHealthy(rt.ring.OwnersFromHash(items[idx].hash))
			regroups[next] = append(regroups[next], idx)
		}
		for next, nidxs := range regroups {
			rt.sendSubBatch(r, items, nidxs, next, results, failed, budget-1)
		}
		return
	}
	if resp.status != http.StatusOK {
		// An envelope-level answer (overload, validation): every item in the
		// group inherits it, siblings in other groups carry on.
		rt.failGroup(idxs, results, failed, resp.status, envelopeError(resp.body.Bytes()))
		return
	}
	var sr struct {
		Items  []json.RawMessage `json:"items"`
		Failed int               `json:"failed"`
	}
	if err := json.Unmarshal(resp.body.Bytes(), &sr); err != nil || len(sr.Items) != len(idxs) {
		who := "fallback"
		if !local {
			who = "backend " + owner
		}
		rt.failGroup(idxs, results, failed, http.StatusBadGateway, who+" answered a malformed batch envelope")
		return
	}
	for k, idx := range idxs {
		results[idx] = sr.Items[k]
	}
	failed.Add(int64(sr.Failed))
}

// failGroup fills a group's result slots with a synthesized per-item error
// in the backend's batch item shape.
func (rt *Router) failGroup(idxs []int, results []json.RawMessage, failed *atomic.Int64, status int, msg string) {
	item, _ := json.Marshal(wire.BatchRunItem{Status: status, Error: msg})
	for _, idx := range idxs {
		results[idx] = item
	}
	failed.Add(int64(len(idxs)))
}

// envelopeError extracts the error text of a backend error body (the raw body
// if it is not that shape).
func envelopeError(body []byte) string {
	var e wire.ErrorResponse
	if err := json.Unmarshal(body, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return string(body)
}

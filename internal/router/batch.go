package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"uhm/internal/wire"
)

// rawBatch keeps batch items opaque: the router splits and merges envelopes
// without understanding (or re-encoding) item payloads beyond the key
// probe, so backend wire-format evolution never involves the router.
type rawBatch struct {
	Items []json.RawMessage `json:"items"`
}

type rawBatchResponse struct {
	Items  []json.RawMessage `json:"items"`
	Failed int               `json:"failed"`
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
	var env rawBatch
	if err := json.Unmarshal(body, &env); err != nil || len(env.Items) == 0 {
		// Malformed or empty envelope: one backend answers the whole thing
		// with the same error a single node would give.
		rt.forward(w, r, body, rt.ring.OwnersFromHash(bodyHash(body)))
		return
	}

	groups := make(map[string][]int)
	for i, item := range env.Items {
		h, keyed := placementHash(item)
		if !keyed {
			h = bodyHash(item)
		}
		owner := rt.firstHealthy(rt.ring.OwnersFromHash(h))
		groups[owner] = append(groups[owner], i)
	}

	results := make([]json.RawMessage, len(env.Items))
	var failed atomic.Int64
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			rt.sendSubBatch(r, env.Items, idxs, owner, results, &failed, len(rt.ring.Backends())+1)
		}(owner, idxs)
	}
	wg.Wait()

	rt.proxied.Add(1)
	wire.WriteJSON(w, http.StatusOK, rawBatchResponse{Items: results, Failed: int(failed.Load())})
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
func (rt *Router) sendSubBatch(r *http.Request, items []json.RawMessage, idxs []int, owner string, results []json.RawMessage, failed *atomic.Int64, budget int) {
	sub, err := json.Marshal(rawBatch{Items: pick(items, idxs)})
	if err != nil {
		rt.failGroup(idxs, results, failed, http.StatusInternalServerError, err.Error())
		return
	}
	local := owner == "" || budget <= 0
	var resp *bufferedResponse
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
			h, keyed := placementHash(items[idx])
			if !keyed {
				h = bodyHash(items[idx])
			}
			next := rt.firstHealthy(rt.ring.OwnersFromHash(h))
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
	var sr rawBatchResponse
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

func pick(items []json.RawMessage, idxs []int) []json.RawMessage {
	out := make([]json.RawMessage, len(idxs))
	for k, idx := range idxs {
		out[k] = items[idx]
	}
	return out
}

package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"uhm/internal/service"
	"uhm/internal/wire"
)

// FleetStats is the fleet-wide roll-up of every reachable backend's service
// counters.  Builds is the one CI gates on: with consistent-hash placement
// it must equal the number of distinct (source, level) programs the fleet
// has seen, however many backends served them.
type FleetStats struct {
	Backends    int   `json:"backends"`
	Reachable   int   `json:"reachable"`
	Workers     int   `json:"workers"`
	Builds      int64 `json:"builds"`
	BuildErrors int64 `json:"build_errors"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	WarmLoads   int64 `json:"warm_loads"`
	Evictions   int64 `json:"evictions"`
	Quarantines int64 `json:"quarantines"`
	Overloads   int64 `json:"overloads"`
	Panics      int64 `json:"panics"`
}

// RouterStats are the router's own counters, reported beside the fleet
// roll-up.
type RouterStats struct {
	Healthy      []string `json:"healthy"`
	Unhealthy    []string `json:"unhealthy"`
	Proxied      int64    `json:"proxied"`
	Retries      int64    `json:"retries"`
	Fallbacks    int64    `json:"fallbacks"`
	Rejected     int64    `json:"rejected"`
	Ejections    int64    `json:"ejections"`
	Readmissions int64    `json:"readmissions"`
}

// backendStatsEnvelope mirrors the uhmd /v1/stats response shape
// (service.Stats marshals under its Go field names).
type backendStatsEnvelope struct {
	Workers int           `json:"workers"`
	Stats   service.Stats `json:"stats"`
}

// handleStats polls every backend (healthy or not — a stats scrape is
// cheap and an "unhealthy" backend may still answer) and aggregates.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	backends := rt.ring.Backends()
	type scrape struct {
		raw json.RawMessage
		env backendStatsEnvelope
		ok  bool
	}
	scrapes := make([]scrape, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), rt.probeTO)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, backendURL(b, "/v1/stats"), nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			if err := json.Unmarshal(data, &scrapes[i].env); err != nil {
				return
			}
			scrapes[i].raw = data
			scrapes[i].ok = true
		}(i, b)
	}
	wg.Wait()

	fleet := FleetStats{Backends: len(backends)}
	perBackend := make(map[string]json.RawMessage, len(backends))
	for i, b := range backends {
		if !scrapes[i].ok {
			perBackend[b] = json.RawMessage(`{"error":"unreachable"}`)
			continue
		}
		fleet.Reachable++
		fleet.Workers += scrapes[i].env.Workers
		st := scrapes[i].env.Stats
		fleet.Builds += st.Registry.Builds
		fleet.BuildErrors += st.Registry.BuildErrors
		fleet.Hits += st.Registry.Hits
		fleet.Misses += st.Registry.Misses
		fleet.Entries += st.Registry.Entries
		fleet.Bytes += st.Registry.Bytes
		fleet.WarmLoads += st.Registry.WarmLoads
		fleet.Evictions += st.Registry.Evictions
		fleet.Quarantines += st.Registry.Quarantines
		fleet.Overloads += st.Requests.Overloads
		fleet.Panics += st.Requests.Panics
		perBackend[b] = scrapes[i].raw
	}

	healthy, unhealthy, ejections, readmissions := rt.health.view()
	if healthy == nil {
		healthy = []string{}
	}
	if unhealthy == nil {
		unhealthy = []string{}
	}
	wire.WriteJSON(w, http.StatusOK, struct {
		Fleet    FleetStats                 `json:"fleet"`
		Router   RouterStats                `json:"router"`
		Backends map[string]json.RawMessage `json:"backends"`
	}{
		Fleet: fleet,
		Router: RouterStats{
			Healthy:      healthy,
			Unhealthy:    unhealthy,
			Proxied:      rt.proxied.Load(),
			Retries:      rt.retries.Load(),
			Fallbacks:    rt.fallbacks.Load(),
			Rejected:     rt.rejected.Load(),
			Ejections:    ejections,
			Readmissions: readmissions,
		},
		Backends: perBackend,
	})
}

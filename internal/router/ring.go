package router

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"uhm/internal/service"
)

// DefaultVnodes is the virtual-node count per backend.  128 points per
// backend keeps the largest/smallest ownership share within a few percent
// of each other for small fleets while the ring stays tiny (N*128 points).
const DefaultVnodes = 128

type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// Ring is an immutable consistent-hash ring over a backend set.  Health is
// deliberately not the ring's concern: Owners returns every backend in ring
// order and the caller skips unhealthy ones, which is exactly what bounds
// key movement — an ejected backend's keys slide to their ring successors
// while every other key's owner is unchanged.
type Ring struct {
	backends []string
	points   []ringPoint
}

// NewRing builds a ring of vnodes points per backend (DefaultVnodes if
// vnodes <= 0).  Backend order and repetition do not matter: placement
// depends only on the set of backend names.
func NewRing(backends []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{backends: slices.Compact(slices.Sorted(slices.Values(backends)))}
	r.points = make([]ringPoint, 0, len(r.backends)*vnodes)
	for i, b := range r.backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", b, v)), backend: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// Backends returns the member set, sorted.
func (r *Ring) Backends() []string { return r.backends }

// Owners returns every backend in ring order starting at the key's
// successor point, deduplicated: element 0 owns the key, element 1 is where
// the key moves if its owner is ejected, and so on through the whole set.
func (r *Ring) Owners(key service.Key) []string {
	return r.OwnersFromHash(KeyHash(key))
}

// OwnersFromHash is Owners for a pre-hashed placement value (used to spread
// un-keyed requests such as conformance checks by body hash).
func (r *Ring) OwnersFromHash(h uint64) []string {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, len(r.backends))
	seen := make([]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(owners) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			owners = append(owners, r.backends[p.backend])
		}
	}
	return owners
}

// KeyHash collapses a registry key to its ring position.  The key's hash
// field is already a sha256 of the program source, so folding in the level
// tag and re-hashing keeps placements of the same source at different
// levels independent.
func KeyHash(key service.Key) uint64 {
	h := fnv.New64a()
	h.Write(key.Hash[:])
	h.Write([]byte{byte(key.Level)})
	return h.Sum64()
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

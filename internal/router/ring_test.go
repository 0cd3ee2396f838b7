package router

import (
	"fmt"
	"slices"
	"testing"

	"uhm/internal/core"
	"uhm/internal/service"
)

func testKeys(n int) []service.Key {
	keys := make([]service.Key, n)
	for i := range keys {
		keys[i] = service.KeyOf(fmt.Sprintf("program p%d; begin x := %d end.", i, i), core.LevelStack)
	}
	return keys
}

func backendSet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:8080", i+1)
	}
	return out
}

// TestRingPlacementStable: an identical backend set produces identical
// placement, regardless of the order the members were listed in.
func TestRingPlacementStable(t *testing.T) {
	backends := backendSet(5)
	reversed := make([]string, len(backends))
	for i, b := range backends {
		reversed[len(backends)-1-i] = b
	}
	a := NewRing(backends, 0)
	b := NewRing(reversed, 0)
	for _, key := range testKeys(500) {
		ao, bo := a.Owners(key), b.Owners(key)
		if len(ao) != len(bo) {
			t.Fatalf("owner list lengths differ: %d vs %d", len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("key %s: owners diverge at %d: %s vs %s", key, i, ao[i], bo[i])
			}
		}
	}
}

// TestRingOwnersComplete: every key's owner list enumerates the whole
// backend set without duplicates, so a retry walk can always exhaust the
// fleet.
func TestRingOwnersComplete(t *testing.T) {
	backends := backendSet(4)
	r := NewRing(backends, 0)
	for _, key := range testKeys(200) {
		owners := r.Owners(key)
		if len(owners) != len(backends) {
			t.Fatalf("key %s: %d owners, want %d", key, len(owners), len(backends))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %s: owner %s listed twice", key, o)
			}
			seen[o] = true
		}
	}
}

// TestRingBoundedMovement is the consistent-hashing property: removing one
// of N backends moves exactly the removed backend's own keys (each to its
// ring successor) and no others.
func TestRingBoundedMovement(t *testing.T) {
	backends := backendSet(5)
	full := NewRing(backends, 0)
	keys := testKeys(2000)

	for drop := 0; drop < len(backends); drop++ {
		removed := backends[drop]
		var survivors []string
		for _, b := range backends {
			if b != removed {
				survivors = append(survivors, b)
			}
		}
		shrunk := NewRing(survivors, 0)

		moved := 0
		for _, key := range keys {
			before := full.Owners(key)
			after := shrunk.Owners(key)
			if before[0] != removed {
				// A key the removed backend did not own must not move.
				if after[0] != before[0] {
					t.Fatalf("drop %s: key %s moved %s -> %s despite its owner surviving",
						removed, key, before[0], after[0])
				}
				continue
			}
			moved++
			// The removed backend's keys slide to their ring successor.
			if after[0] != before[1] {
				t.Fatalf("drop %s: key %s moved to %s, want ring successor %s",
					removed, key, after[0], before[1])
			}
		}
		// The moved share matches the removed backend's ownership share: at
		// most a loose multiple of the fair 1/N share (vnode imbalance).
		fair := len(keys) / len(backends)
		if moved > 2*fair {
			t.Fatalf("drop %s: %d of %d keys moved, more than 2x the fair share %d",
				removed, moved, len(keys), fair)
		}
		if moved == 0 {
			t.Fatalf("drop %s: no keys moved — backend owned nothing", removed)
		}
	}
}

// TestRingBalance: with DefaultVnodes, every backend owns a non-degenerate
// share of the key space.
func TestRingBalance(t *testing.T) {
	backends := backendSet(5)
	r := NewRing(backends, 0)
	counts := map[string]int{}
	keys := testKeys(5000)
	for _, key := range keys {
		counts[r.Owners(key)[0]]++
	}
	fair := len(keys) / len(backends)
	for _, b := range backends {
		if counts[b] < fair/3 || counts[b] > fair*3 {
			t.Errorf("backend %s owns %d keys, fair share %d — imbalance beyond 3x", b, counts[b], fair)
		}
	}
}

// TestRingEmptyAndSingle: degenerate member sets behave.
func TestRingEmptyAndSingle(t *testing.T) {
	if owners := NewRing(nil, 0).Owners(testKeys(1)[0]); owners != nil {
		t.Fatalf("empty ring produced owners %v", owners)
	}
	one := NewRing([]string{"solo:1"}, 0)
	for _, key := range testKeys(10) {
		if owners := one.Owners(key); len(owners) != 1 || owners[0] != "solo:1" {
			t.Fatalf("single-backend ring produced %v", owners)
		}
	}
}

// TestRingDuplicateBackends: a backend listed twice is one member, placed
// exactly as if it were listed once.
func TestRingDuplicateBackends(t *testing.T) {
	a, b := "10.0.0.1:8080", "10.0.0.2:8080"
	dup, once := NewRing([]string{a, b, a}, 0), NewRing([]string{a, b}, 0)
	if got, want := dup.Backends(), once.Backends(); !slices.Equal(got, want) {
		t.Fatalf("backends %v, want %v", got, want)
	}
	for _, key := range testKeys(200) {
		if got, want := dup.Owners(key), once.Owners(key); !slices.Equal(got, want) {
			t.Fatalf("key %s: owners %v, want %v", key, got, want)
		}
	}
}

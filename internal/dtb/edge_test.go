package dtb

import (
	"errors"
	"testing"
)

// TestZeroOverflowArea pins the VariableOverflow policy with an empty
// overflow area: unit-sized translations behave normally, anything larger is
// rejected with ErrNoOverflow, counted in RejectedSize, and leaves the victim
// entry invalid rather than half-installed.
func TestZeroOverflowArea(t *testing.T) {
	d, err := New(Config{Entries: 4, Assoc: 4, UnitWords: 4, Policy: VariableOverflow, OverflowUnits: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Install(10, 4); err != nil {
		t.Fatalf("unit-sized install: %v", err)
	}
	if _, ok := d.Lookup(10); !ok {
		t.Fatal("unit-sized translation not resident")
	}
	if err := d.Install(11, 5); err == nil {
		t.Fatal("oversized install with no overflow area succeeded")
	} else if !errors.Is(err, ErrNoOverflow) {
		t.Fatalf("oversized install: %v, want ErrNoOverflow", err)
	}
	st := d.Stats()
	if st.RejectedSize != 1 {
		t.Errorf("RejectedSize = %d, want 1", st.RejectedSize)
	}
	if st.Overflows != 0 {
		t.Errorf("Overflows = %d, want 0", st.Overflows)
	}
	// The rejected translation's victim slot must be invalid: a partial
	// translation served on a later hit would be a correctness bug.
	if d.Contains(11) {
		t.Error("rejected translation is resident")
	}
	if d.Resident() != 1 {
		t.Errorf("Resident = %d, want 1 (only the unit-sized entry)", d.Resident())
	}
}

// TestSingleEntryDTB runs the degenerate 1-entry, 1-way geometry: every
// address maps to the same slot, so alternating addresses never hit and each
// install past the first evicts, while a repeated address hits every time.
func TestSingleEntryDTB(t *testing.T) {
	d, err := New(Config{Entries: 1, Assoc: 1, UnitWords: 4, Policy: Fixed})
	if err != nil {
		t.Fatal(err)
	}
	if d.Sets() != 1 {
		t.Fatalf("Sets = %d, want 1", d.Sets())
	}
	const rounds = 8
	for i := 0; i < rounds; i++ {
		addr := uint64(100 + i%2) // alternate two addresses
		if _, ok := d.Lookup(addr); ok {
			t.Fatalf("round %d: unexpected hit on %d", i, addr)
		}
		if err := d.Install(addr, 3); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Hits != 0 || st.Misses != rounds {
		t.Errorf("alternating addresses: hits=%d misses=%d, want 0/%d", st.Hits, st.Misses, rounds)
	}
	// rounds installs into one slot: first fills the invalid entry, the rest evict.
	if st.Evictions != rounds-1 {
		t.Errorf("Evictions = %d, want %d", st.Evictions, rounds-1)
	}
	// A repeated address now hits every time.
	d.ResetStats()
	for i := 0; i < rounds; i++ {
		if n, ok := d.Lookup(101); !ok {
			t.Fatalf("round %d: repeat address missed", i)
		} else if n != 3 {
			t.Fatalf("round %d: translation length %d, want 3", i, n)
		}
	}
	if st := d.Stats(); st.Hits != rounds || st.Misses != 0 {
		t.Errorf("repeated address: hits=%d misses=%d, want %d/0", st.Hits, st.Misses, rounds)
	}
}

// TestCapacityEqualsWorkingSet pins the LRU boundary in a fully associative
// DTB: a cyclic working set that exactly fits hits on every revisit, and
// growing it by a single address collapses the cyclic hit ratio to zero —
// the classic LRU worst case the paper's Figure 2 knee rides on.
func TestCapacityEqualsWorkingSet(t *testing.T) {
	const entries = 8
	run := func(workingSet int) Stats {
		d, err := New(Config{Entries: entries, Assoc: entries, UnitWords: 4, Policy: Fixed})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			for a := 0; a < workingSet; a++ {
				addr := uint64(1000 + a)
				if _, ok := d.Lookup(addr); !ok {
					if err := d.Install(addr, 2); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return d.Stats()
	}

	fit := run(entries)
	// First pass misses everything, the remaining three passes hit everything.
	if fit.Misses != entries || fit.Hits != 3*entries {
		t.Errorf("working set == capacity: hits=%d misses=%d, want %d/%d",
			fit.Hits, fit.Misses, 3*entries, entries)
	}
	if fit.Evictions != 0 {
		t.Errorf("working set == capacity: evictions = %d, want 0", fit.Evictions)
	}

	thrash := run(entries + 1)
	// One extra address under cyclic access + LRU: every lookup misses.
	if thrash.Hits != 0 {
		t.Errorf("working set == capacity+1: hits = %d, want 0 (LRU thrash)", thrash.Hits)
	}
	if thrash.Evictions == 0 {
		t.Error("working set == capacity+1: no evictions recorded")
	}
}

// TestOverflowRecyclingAfterReset exhausts the overflow area, Resets, and
// requires the recovered overflow blocks to serve the same allocations again
// — the invariant the warm-start replayer relies on.
func TestOverflowRecyclingAfterReset(t *testing.T) {
	cfg := Config{Entries: 8, Assoc: 4, UnitWords: 4, Policy: VariableOverflow, OverflowUnits: 2}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exhaust := func(tag string) {
		// Two 8-word translations take one overflow block each.
		for a := uint64(0); a < 2; a++ {
			if err := d.Install(a, 8); err != nil {
				t.Fatalf("%s: install %d: %v", tag, a, err)
			}
		}
		if d.FreeOverflowBlocks() != 0 {
			t.Fatalf("%s: %d overflow blocks free, want 0", tag, d.FreeOverflowBlocks())
		}
		// A third oversized translation maps to a different set (addresses 0
		// and 1 already hold the blocks), so it must be rejected.
		if err := d.Install(2, 8); !errors.Is(err, ErrNoOverflow) {
			t.Fatalf("%s: exhausted install: %v, want ErrNoOverflow", tag, err)
		}
	}
	exhaust("first run")

	d.Reset()
	if d.FreeOverflowBlocks() != cfg.OverflowUnits {
		t.Fatalf("after Reset: %d overflow blocks free, want %d", d.FreeOverflowBlocks(), cfg.OverflowUnits)
	}
	if d.Resident() != 0 || d.Stats() != (Stats{}) {
		t.Fatalf("after Reset: resident=%d stats=%+v, want empty", d.Resident(), d.Stats())
	}
	exhaust("after Reset")

	// Eviction is the other recycling path: invalidate an overflow holder and
	// the block must come back.
	if !d.Invalidate(0) {
		t.Fatal("Invalidate(0) found nothing")
	}
	if d.FreeOverflowBlocks() != 1 {
		t.Errorf("after Invalidate: %d overflow blocks free, want 1", d.FreeOverflowBlocks())
	}
}

package dtb

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *DTB {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Entries: 0, Assoc: 4, UnitWords: 4},
		{Entries: 16, Assoc: 0, UnitWords: 4},
		{Entries: 16, Assoc: 4, UnitWords: 0},
		{Entries: 17, Assoc: 4, UnitWords: 4},
		{Entries: 16, Assoc: 4, UnitWords: 4, Policy: Policy(9)},
		{Entries: 16, Assoc: 4, UnitWords: 4, Policy: VariableOverflow, OverflowUnits: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New should reject invalid config", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Fixed.String() != "fixed" || VariableOverflow.String() != "variable-overflow" {
		t.Errorf("policy strings = %q, %q", Fixed, VariableOverflow)
	}
	if Policy(7).String() == "" {
		t.Error("unknown policy should still render")
	}
}

func TestCapacity(t *testing.T) {
	cfg := Config{Entries: 8, Assoc: 4, UnitWords: 4, Policy: VariableOverflow, OverflowUnits: 2}
	if cfg.CapacityWords() != 40 {
		t.Errorf("CapacityWords = %d, want 40", cfg.CapacityWords())
	}
	if cfg.CapacityBytes() != 160 {
		t.Errorf("CapacityBytes = %d, want 160", cfg.CapacityBytes())
	}
	fixed := Config{Entries: 8, Assoc: 4, UnitWords: 4, Policy: Fixed, OverflowUnits: 99}
	if fixed.CapacityWords() != 32 {
		t.Errorf("fixed CapacityWords = %d, want 32 (overflow ignored)", fixed.CapacityWords())
	}
}

func TestMissInstallHit(t *testing.T) {
	d := mustNew(t, Config{Entries: 8, Assoc: 4, UnitWords: 4, Policy: Fixed})
	if n, hit := d.Lookup(100); hit || n != 0 {
		t.Fatalf("cold lookup = (%d, %v), want a miss", n, hit)
	}
	if err := d.Install(100, 3); err != nil {
		t.Fatalf("Install: %v", err)
	}
	n, hit := d.Lookup(100)
	if !hit {
		t.Fatal("lookup after install should hit")
	}
	if n != 3 {
		t.Errorf("resident translation length = %d, want 3", n)
	}
	st := d.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.Installs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", st.HitRatio())
	}
}

func TestEmptyTranslationRejected(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	if err := d.Install(1, 0); err == nil {
		t.Error("empty translation should be rejected")
	}
}

func TestFixedPolicyRejectsOversize(t *testing.T) {
	d := mustNew(t, Config{Entries: 8, Assoc: 4, UnitWords: 4, Policy: Fixed})
	if err := d.Install(5, 5); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	if d.Stats().RejectedSize != 1 {
		t.Errorf("RejectedSize = %d, want 1", d.Stats().RejectedSize)
	}
}

func TestVariableOverflow(t *testing.T) {
	cfg := Config{Entries: 8, Assoc: 4, UnitWords: 4, Policy: VariableOverflow, OverflowUnits: 4}
	d := mustNew(t, cfg)
	// 10 words need the primary unit plus 2 overflow blocks.
	if err := d.Install(7, 10); err != nil {
		t.Fatal(err)
	}
	if d.FreeOverflowBlocks() != 2 {
		t.Errorf("free overflow blocks = %d, want 2", d.FreeOverflowBlocks())
	}
	if n, hit := d.Lookup(7); !hit || n != 10 {
		t.Fatalf("lookup = (%d, %v), want (10, true)", n, hit)
	}
	if d.Stats().Overflows != 1 {
		t.Errorf("Overflows = %d, want 1", d.Stats().Overflows)
	}
	// Invalidation must return the overflow blocks to the overflow area.
	if !d.Invalidate(7) {
		t.Fatal("Invalidate should succeed")
	}
	if d.FreeOverflowBlocks() != 4 {
		t.Errorf("free overflow after invalidate = %d, want 4", d.FreeOverflowBlocks())
	}
	if _, hit := d.Lookup(7); hit {
		t.Error("lookup after invalidate should miss")
	}
}

func TestOverflowExhaustion(t *testing.T) {
	cfg := Config{Entries: 8, Assoc: 4, UnitWords: 2, Policy: VariableOverflow, OverflowUnits: 1}
	d := mustNew(t, cfg)
	// 6 words need 2 overflow blocks; only 1 exists.
	if err := d.Install(3, 6); !errors.Is(err, ErrNoOverflow) {
		t.Errorf("err = %v, want ErrNoOverflow", err)
	}
	// The buffer must still work for translations that fit.
	if err := d.Install(3, 2); err != nil {
		t.Errorf("small install after rejection failed: %v", err)
	}
}

func TestLRUReplacementWithinSet(t *testing.T) {
	// 2 sets, 2-way.  Addresses with the same parity share a set.
	cfg := Config{Entries: 4, Assoc: 2, UnitWords: 4, Policy: Fixed}
	d := mustNew(t, cfg)
	install := func(addr uint64) {
		t.Helper()
		if err := d.Install(addr, 2); err != nil {
			t.Fatal(err)
		}
	}
	install(2) // set 0
	install(4) // set 0
	d.Lookup(2)
	d.Lookup(4)
	d.Lookup(2) // 2 is now most recently used
	install(6)  // set 0 is full: LRU (4) must be evicted
	if !d.Contains(2) {
		t.Error("2 should remain resident (MRU)")
	}
	if d.Contains(4) {
		t.Error("4 should have been evicted (LRU)")
	}
	if !d.Contains(6) {
		t.Error("6 should be resident")
	}
	if d.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", d.Stats().Evictions)
	}
}

func TestEvictionReleasesOverflow(t *testing.T) {
	cfg := Config{Entries: 2, Assoc: 2, UnitWords: 2, Policy: VariableOverflow, OverflowUnits: 2}
	d := mustNew(t, cfg)
	// Fill both ways with overflowing translations (each takes 1 overflow block).
	if err := d.Install(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(1, 4); err != nil {
		t.Fatal(err)
	}
	if d.FreeOverflowBlocks() != 0 {
		t.Fatalf("free overflow = %d, want 0", d.FreeOverflowBlocks())
	}
	// Install a third overflowing translation: the eviction must free the
	// victim's overflow block so this succeeds.
	if err := d.Install(2, 4); err != nil {
		t.Fatalf("install after eviction should reuse freed overflow: %v", err)
	}
	if d.FreeOverflowBlocks() != 0 {
		t.Errorf("free overflow = %d, want 0", d.FreeOverflowBlocks())
	}
}

func TestReinstallSameTagReplacesInPlace(t *testing.T) {
	d := mustNew(t, Config{Entries: 8, Assoc: 4, UnitWords: 4, Policy: Fixed})
	if err := d.Install(5, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(5, 3); err != nil {
		t.Fatal(err)
	}
	if n, hit := d.Lookup(5); !hit || n != 3 {
		t.Errorf("reinstalled translation = (%d, %v), want (3, true)", n, hit)
	}
	if d.Resident() != 1 {
		t.Errorf("resident = %d, want 1 (no duplicate entries for one tag)", d.Resident())
	}
}

func TestFlush(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	for i := uint64(0); i < 10; i++ {
		if err := d.Install(i, 2); err != nil {
			t.Fatal(err)
		}
	}
	if d.Resident() != 10 {
		t.Fatalf("resident = %d", d.Resident())
	}
	d.Flush()
	if d.Resident() != 0 {
		t.Error("flush should empty the DTB")
	}
	if d.FreeOverflowBlocks() != DefaultConfig().OverflowUnits {
		t.Errorf("flush should release overflow blocks, free = %d", d.FreeOverflowBlocks())
	}
}

func TestInvalidateMissing(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	if d.Invalidate(999) {
		t.Error("invalidating an absent tag should return false")
	}
}

func TestResidentTagsAndString(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	_ = d.Install(11, 1)
	_ = d.Install(22, 1)
	tags := d.ResidentTags()
	if len(tags) != 2 {
		t.Errorf("ResidentTags = %v", tags)
	}
	if d.String() == "" || d.Sets() != DefaultConfig().Entries/DefaultConfig().Assoc {
		t.Errorf("String/Sets: %q %d", d.String(), d.Sets())
	}
	d.ResetStats()
	if d.Stats().Installs != 0 {
		t.Error("ResetStats should clear counters")
	}
}

func TestTightLoopHitRatioApproachesUnity(t *testing.T) {
	// The paper: "If the hit ratio in the DTB were unity, as it will be while
	// the DIR program is in a tight loop..."
	d := mustNew(t, DefaultConfig())
	loop := []uint64{100, 104, 108, 112, 116, 120}
	for pass := 0; pass < 200; pass++ {
		for _, addr := range loop {
			if _, hit := d.Lookup(addr); !hit {
				if err := d.Install(addr, 3); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if hr := d.Stats().HitRatio(); hr < 0.99 {
		t.Errorf("tight-loop hit ratio = %v, want >= 0.99", hr)
	}
}

func TestWorkingSetLargerThanDTB(t *testing.T) {
	// A cyclic reference pattern over many more instructions than the DTB
	// holds (with LRU) should have a low hit ratio.
	cfg := Config{Entries: 16, Assoc: 4, UnitWords: 4, Policy: Fixed}
	d := mustNew(t, cfg)
	for pass := 0; pass < 20; pass++ {
		for i := 0; i < 64; i++ {
			addr := uint64(i * 4)
			if _, hit := d.Lookup(addr); !hit {
				if err := d.Install(addr, 2); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if hr := d.Stats().HitRatio(); hr > 0.30 {
		t.Errorf("thrashing hit ratio = %v, want small", hr)
	}
}

// Property: a lookup immediately after a successful install always hits and
// returns exactly the installed length.
func TestQuickInstallThenHit(t *testing.T) {
	cfg := Config{Entries: 32, Assoc: 4, UnitWords: 4, Policy: VariableOverflow, OverflowUnits: 64}
	d := mustNew(t, cfg)
	f := func(addr uint64, n uint8) bool {
		length := int(n%16) + 1
		if err := d.Install(addr, length); err != nil {
			// A random install stream can legitimately exhaust the overflow
			// area (every entry may hold up to 3 overflow blocks, more than
			// OverflowUnits provides in total); the INTERP path tolerates
			// that by executing untranslated, so the property does too.
			return errors.Is(err, ErrNoOverflow) || errors.Is(err, ErrTooLarge)
		}
		got, hit := d.Lookup(addr)
		return hit && got == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: structural invariants hold under random workloads of lookups,
// installs, invalidations and resets — resident count never exceeds Entries,
// each tag appears at most once, lookups = hits + misses, and overflow blocks
// are conserved.
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Entries: 16, Assoc: 4, UnitWords: 2, Policy: VariableOverflow, OverflowUnits: 8}
		d, err := New(cfg)
		if err != nil {
			return false
		}
		allocatedOverflow := func() int {
			total := 0
			for _, set := range d.sets {
				for _, e := range set {
					if e.valid {
						total += e.overflow
					}
				}
			}
			return total
		}
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(40))
			if _, hit := d.Lookup(addr); !hit {
				_ = d.Install(addr, rng.Intn(5)+1)
			}
			if rng.Intn(10) == 0 {
				d.Invalidate(uint64(rng.Intn(40)))
			}
			if rng.Intn(100) == 0 {
				d.Reset()
			}
		}
		if d.Resident() > cfg.Entries {
			return false
		}
		tags := d.ResidentTags()
		seen := make(map[uint64]bool)
		for _, tag := range tags {
			if seen[tag] {
				return false
			}
			seen[tag] = true
		}
		st := d.Stats()
		if st.Lookups != st.Hits+st.Misses {
			return false
		}
		return allocatedOverflow()+d.FreeOverflowBlocks() == cfg.OverflowUnits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	d, _ := New(DefaultConfig())
	_ = d.Install(42, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = d.Lookup(42)
	}
}

func BenchmarkLookupInstallMixed(b *testing.B) {
	d, _ := New(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(512))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := addrs[i%len(addrs)]
		if _, hit := d.Lookup(addr); !hit {
			_ = d.Install(addr, 3)
		}
	}
}

func TestLookupUpdatesRecency(t *testing.T) {
	// One set, two ways: touching a via Lookup must keep it resident while
	// b, untouched, is the LRU victim.
	d := mustNew(t, Config{Entries: 2, Assoc: 2, UnitWords: 4, Policy: Fixed})
	if err := d.Install(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(2, 2); err != nil {
		t.Fatal(err)
	}
	if _, hit := d.Lookup(0); !hit {
		t.Fatal("expected hit on 0")
	}
	if err := d.Install(4, 2); err != nil {
		t.Fatal(err)
	}
	if !d.Contains(0) || d.Contains(2) {
		t.Fatalf("LRU after Lookup: contains(0)=%v contains(2)=%v", d.Contains(0), d.Contains(2))
	}
}

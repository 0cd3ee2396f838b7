package memory

import (
	"errors"
	"testing"
)

func mustNew(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []Config{
		{Level1Size: 0, Level2Size: 1, Level1Time: 1, Level2Time: 10, BufferTime: 2},
		{Level1Size: 1, Level2Size: 0, Level1Time: 1, Level2Time: 10, BufferTime: 2},
		{Level1Size: 1, Level2Size: 1, Level1Time: 0, Level2Time: 10, BufferTime: 2},
		{Level1Size: 1, Level2Size: 1, Level1Time: 1, Level2Time: 0, BufferTime: 2},
		{Level1Size: 1, Level2Size: 1, Level1Time: 1, Level2Time: 10, BufferTime: 0},
		{Level1Size: 1, Level2Size: 1, Level1Time: 5, Level2Time: 2, BufferTime: 1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New should fail for invalid config", i)
		}
	}
}

func TestLevelString(t *testing.T) {
	if Level1.String() != "level-1" || Level2.String() != "level-2" {
		t.Errorf("Level.String() = %q, %q", Level1.String(), Level2.String())
	}
	if Level(7).String() != "level-7" {
		t.Errorf("unknown level string = %q", Level(7).String())
	}
}

func TestAllocate(t *testing.T) {
	h := mustNew(t)
	seg, err := h.Allocate(Level1, "interp", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Name() != "interp" || seg.Level() != Level1 || seg.Size() != 4096 || seg.Words() != 1024 {
		t.Errorf("segment = %q %v %d bytes %d words", seg.Name(), seg.Level(), seg.Size(), seg.Words())
	}
	if h.Free(Level1) != DefaultConfig().Level1Size-4096 {
		t.Errorf("Free(Level1) = %d", h.Free(Level1))
	}
	if _, err := h.Allocate(Level1, "huge", 1<<30); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("oversize allocation err = %v, want ErrOutOfMemory", err)
	}
	if _, err := h.Allocate(Level1, "zero", 0); err == nil {
		t.Error("zero-size allocation should fail")
	}
	if _, err := h.Allocate(Level(5), "x", 8); err == nil {
		t.Error("unknown level should fail")
	}
	if h.Free(Level(9)) != 0 {
		t.Errorf("Free of unknown level should be 0")
	}
	// Capacity is accounted per level: filling level 2 exactly leaves level 1
	// untouched, and one more byte is refused.
	if _, err := h.Allocate(Level2, "program", DefaultConfig().Level2Size); err != nil {
		t.Fatalf("allocation of all of level 2: %v", err)
	}
	if h.Free(Level2) != 0 || h.Free(Level1) != DefaultConfig().Level1Size-4096 {
		t.Errorf("Free after filling level 2 = %d, %d", h.Free(Level1), h.Free(Level2))
	}
	if _, err := h.Allocate(Level2, "more", 1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("allocation from a full level err = %v, want ErrOutOfMemory", err)
	}
}

func TestChargeWordTiming(t *testing.T) {
	h := mustNew(t)
	l1, _ := h.Allocate(Level1, "fast", 64)
	l2, _ := h.Allocate(Level2, "slow", 64)

	for _, idx := range []int{3, 15} {
		if c, err := l1.ChargeWord(idx); err != nil || c != 1 {
			t.Fatalf("l1 word %d: cycles=%d err=%v", idx, c, err)
		}
		if c, err := l2.ChargeWord(idx - 3); err != nil || c != 10 {
			t.Fatalf("l2 word %d: cycles=%d err=%v", idx-3, c, err)
		}
	}

	st := h.Stats()
	if st.Level1Refs != 2 || st.Level2Refs != 2 {
		t.Errorf("refs = %d,%d want 2,2", st.Level1Refs, st.Level2Refs)
	}
	if st.Level1Time != 2 || st.Level2Time != 20 {
		t.Errorf("times = %d,%d want 2,20", st.Level1Time, st.Level2Time)
	}
	if st.TotalRefs() != 4 || st.TotalTime() != 22 {
		t.Errorf("totals = %d refs %d time", st.TotalRefs(), st.TotalTime())
	}

	h.ResetStats()
	if h.Stats().TotalRefs() != 0 {
		t.Error("ResetStats did not clear stats")
	}
}

func TestWordBounds(t *testing.T) {
	h := mustNew(t)
	seg, _ := h.Allocate(Level1, "s", 18) // four whole words and a partial one
	for _, idx := range []int{4, -1} {
		if _, err := seg.ChargeWord(idx); !errors.Is(err, ErrBounds) {
			t.Errorf("word %d err = %v, want ErrBounds", idx, err)
		}
	}
	if h.Stats().TotalRefs() != 0 {
		t.Errorf("out-of-bounds words charged %d references", h.Stats().TotalRefs())
	}
}

func TestChargeBuffer(t *testing.T) {
	h := mustNew(t)
	c := h.ChargeBuffer(3)
	if c != 6 {
		t.Errorf("ChargeBuffer(3) = %d cycles, want 6", c)
	}
	st := h.Stats()
	if st.BufferRefs != 3 || st.BufferTime != 6 {
		t.Errorf("buffer stats = %d refs %d time", st.BufferRefs, st.BufferTime)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Level1Refs: 1, Level2Refs: 2, BufferRefs: 3, Level1Time: 4, Level2Time: 5, BufferTime: 6}
	b := Stats{Level1Refs: 10, Level2Refs: 20, BufferRefs: 30, Level1Time: 40, Level2Time: 50, BufferTime: 60}
	a.Add(b)
	if a.Level1Refs != 11 || a.Level2Refs != 22 || a.BufferRefs != 33 ||
		a.Level1Time != 44 || a.Level2Time != 55 || a.BufferTime != 66 {
		t.Errorf("Add result = %+v", a)
	}
}

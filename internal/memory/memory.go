package memory

import (
	"errors"
	"fmt"
)

// Cycles is a duration expressed in level-1 access-time units.
type Cycles int64

// Level identifies a memory level.
type Level int

const (
	// Level1 is the small, fast memory (control store / scratchpad).
	Level1 Level = 1
	// Level2 is the large, slow main memory.
	Level2 Level = 2
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Level1:
		return "level-1"
	case Level2:
		return "level-2"
	default:
		return fmt.Sprintf("level-%d", int(l))
	}
}

// WordBytes is the width of a memory word in bytes.  The UHM is modelled with
// 32-bit words; short-format (IU2) instructions occupy one word and
// long-format (IU1) control words occupy two.
const WordBytes = 4

// Config describes a hierarchy.
type Config struct {
	Level1Size int    // capacity of level 1 in bytes
	Level2Size int    // capacity of level 2 in bytes
	Level1Time Cycles // access time of level 1 (the paper's t1, nominally 1)
	Level2Time Cycles // access time of level 2 (the paper's t2, nominally 10)
	BufferTime Cycles // access time of a DTB or cache array (the paper's tD, nominally 2*t1)
}

// DefaultConfig returns the parameterisation used throughout Section 7:
// t1 = 1, t2 = 10, tD = 2, with a 64 KiB level 1 and an 8 MiB level 2.
func DefaultConfig() Config {
	return Config{
		Level1Size: 64 << 10,
		Level2Size: 8 << 20,
		Level1Time: 1,
		Level2Time: 10,
		BufferTime: 2,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Level1Size <= 0 || c.Level2Size <= 0 {
		return errors.New("memory: level sizes must be positive")
	}
	if c.Level1Time <= 0 || c.Level2Time <= 0 || c.BufferTime <= 0 {
		return errors.New("memory: access times must be positive")
	}
	if c.Level2Time < c.Level1Time {
		return errors.New("memory: level 2 must not be faster than level 1")
	}
	return nil
}

// Stats accumulates reference counts and time per level.
type Stats struct {
	Level1Refs int64
	Level2Refs int64
	BufferRefs int64
	Level1Time Cycles
	Level2Time Cycles
	BufferTime Cycles
}

// TotalRefs returns the total number of memory references.
func (s Stats) TotalRefs() int64 { return s.Level1Refs + s.Level2Refs + s.BufferRefs }

// TotalTime returns the total time spent in memory references.
func (s Stats) TotalTime() Cycles { return s.Level1Time + s.Level2Time + s.BufferTime }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Level1Refs += other.Level1Refs
	s.Level2Refs += other.Level2Refs
	s.BufferRefs += other.BufferRefs
	s.Level1Time += other.Level1Time
	s.Level2Time += other.Level2Time
	s.BufferTime += other.BufferTime
}

// Hierarchy is a two-level memory: per-level capacity accounting for the
// segments allocated in it, and reference counts and time for every access
// charged to it.  It stores no contents.
type Hierarchy struct {
	cfg   Config
	used  map[Level]int
	stats Stats
}

// New creates a hierarchy.  It returns an error if the configuration is
// invalid.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{
		cfg:  cfg,
		used: map[Level]int{Level1: 0, Level2: 0},
	}, nil
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns accumulated reference statistics.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats clears accumulated statistics; allocated segments remain.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// ChargeBuffer records a DTB/cache array reference (the paper's tD).  The DTB
// and cache model their own arrays, but their timing is accounted here so one
// Stats value covers the whole machine.
func (h *Hierarchy) ChargeBuffer(refs int64) Cycles {
	t := Cycles(refs) * h.cfg.BufferTime
	h.stats.BufferRefs += refs
	h.stats.BufferTime += t
	return t
}

// ChargeLevel1 records level-1 references.  The compiled organisation's
// native-code fetches, whose closures occupy no segment, are charged here
// directly, so one Stats value still covers the whole machine.
func (h *Hierarchy) ChargeLevel1(refs int64) Cycles {
	t := Cycles(refs) * h.cfg.Level1Time
	h.stats.Level1Refs += refs
	h.stats.Level1Time += t
	return t
}

// Free returns the number of unallocated bytes remaining in a level.
func (h *Hierarchy) Free(l Level) int {
	switch l {
	case Level1:
		return h.cfg.Level1Size - h.used[Level1]
	case Level2:
		return h.cfg.Level2Size - h.used[Level2]
	default:
		return 0
	}
}

// Segment is a named, contiguous region of one memory level.  Only its extent
// is modelled: a word reference is bounds-checked and charged, and no
// contents are stored.
type Segment struct {
	h     *Hierarchy
	name  string
	level Level
	size  int
}

// ErrOutOfMemory is returned when a level cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("memory: level exhausted")

// ErrBounds is returned by segment accesses outside the segment.
var ErrBounds = errors.New("memory: access outside segment")

// Allocate carves a segment of size bytes out of the given level.  The name
// labels the segment in errors.
func (h *Hierarchy) Allocate(level Level, name string, size int) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("memory: non-positive segment size %d", size)
	}
	if level != Level1 && level != Level2 {
		return nil, fmt.Errorf("memory: unknown level %d", level)
	}
	if h.Free(level) < size {
		return nil, fmt.Errorf("%w: %s needs %d bytes, %d free in %s", ErrOutOfMemory, name, size, h.Free(level), level)
	}
	h.used[level] += size
	return &Segment{h: h, name: name, level: level, size: size}, nil
}

// Name returns the segment's name.
func (s *Segment) Name() string { return s.name }

// Level returns the memory level the segment lives in.
func (s *Segment) Level() Level { return s.level }

// Size returns the segment size in bytes.
func (s *Segment) Size() int { return s.size }

// Words returns the segment size in words.
func (s *Segment) Words() int { return s.size / WordBytes }

// ChargeWord charges one reference to the word at word offset idx, at the
// access time of the segment's level, and returns the cycles charged.
func (s *Segment) ChargeWord(idx int) (Cycles, error) {
	if idx < 0 || idx >= s.Words() {
		return 0, fmt.Errorf("%w: word %d of %q", ErrBounds, idx, s.name)
	}
	if s.level == Level1 {
		return s.h.ChargeLevel1(1), nil
	}
	t := s.h.cfg.Level2Time
	s.h.stats.Level2Refs++
	s.h.stats.Level2Time += t
	return t, nil
}

package dtb

import (
	"errors"
	"fmt"

	"uhm/internal/memory"
)

// Policy selects the buffer-array allocation policy of §5.1.
type Policy int

const (
	// Fixed allocation: one unit of allocation per translation; translations
	// larger than the unit are rejected (the static and dynamic
	// representations must be chosen so this cannot happen).
	Fixed Policy = iota
	// VariableOverflow: a translation larger than the unit of allocation
	// receives overflow blocks from a secondary area, linked to the primary
	// unit.
	VariableOverflow
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Fixed:
		return "fixed"
	case VariableOverflow:
		return "variable-overflow"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes a DTB.
type Config struct {
	// Entries is the total number of associative-address-array entries
	// (equivalently, primary units of allocation in the buffer array).
	Entries int
	// Assoc is the set associativity; the paper recommends degree 4.
	Assoc int
	// UnitWords is the unit of allocation in the buffer array, in 32-bit
	// words.  A PSDER translation of one DIR instruction must fit in one
	// unit under the Fixed policy.
	UnitWords int
	// Policy selects Fixed or VariableOverflow allocation.
	Policy Policy
	// OverflowUnits is the number of overflow blocks (each UnitWords long)
	// in the secondary overflow area.  Only used with VariableOverflow.
	OverflowUnits int
}

// DefaultConfig returns the configuration used by the paper's evaluation: the
// effective DTB size is 4096/3 bytes with the dynamic form three times the
// size of the static form; with 4-word (16-byte) units that is 85 entries,
// rounded to 84 to keep the set count whole.
func DefaultConfig() Config {
	return Config{Entries: 84, Assoc: 4, UnitWords: 4, Policy: VariableOverflow, OverflowUnits: 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Assoc <= 0 || c.UnitWords <= 0 {
		return errors.New("dtb: entries, associativity and unit size must be positive")
	}
	if c.Entries%c.Assoc != 0 {
		return errors.New("dtb: entry count must be a multiple of the associativity")
	}
	if c.Policy != Fixed && c.Policy != VariableOverflow {
		return errors.New("dtb: unknown allocation policy")
	}
	if c.Policy == VariableOverflow && c.OverflowUnits < 0 {
		return errors.New("dtb: negative overflow area")
	}
	return nil
}

// CapacityWords returns the total buffer-array capacity in words, including
// the overflow area.
func (c Config) CapacityWords() int {
	words := c.Entries * c.UnitWords
	if c.Policy == VariableOverflow {
		words += c.OverflowUnits * c.UnitWords
	}
	return words
}

// CapacityBytes returns the buffer-array capacity in bytes.
func (c Config) CapacityBytes() int { return c.CapacityWords() * memory.WordBytes }

// Stats reports DTB behaviour.
type Stats struct {
	Lookups      int64
	Hits         int64
	Misses       int64
	Installs     int64
	Evictions    int64
	Overflows    int64 // translations that needed overflow blocks
	RejectedSize int64 // installs rejected because the translation did not fit
	Invalidates  int64
}

// HitRatio returns hits/lookups (the paper's h_D); zero if never used.
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// ErrTooLarge is returned when a translation cannot be stored under the
// configured allocation policy.
var ErrTooLarge = errors.New("dtb: translation exceeds unit of allocation")

// ErrNoOverflow is returned when the overflow area is exhausted.
var ErrNoOverflow = errors.New("dtb: overflow area exhausted")

// entry is one associative-address-array entry plus its replacement-array
// recency stamp.  The buffer array is modelled by what placement depends on:
// the entry's primary unit, the overflow blocks linked to it, and the length
// of the translation they hold.
type entry struct {
	valid    bool
	tag      uint64 // DIR instruction address (associative tag array)
	overflow int    // overflow blocks linked to the primary unit
	length   int    // number of valid words of translation
	lastUse  int64  // replacement array: recency of use
}

// DTB is the dynamic translation buffer.
type DTB struct {
	cfg   Config
	sets  [][]entry
	nsets int
	free  int // unallocated overflow blocks
	clock int64
	stats Stats
}

// New creates a DTB.
func New(cfg Config) (*DTB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Entries / cfg.Assoc
	sets := make([][]entry, nsets)
	for i := range sets {
		sets[i] = make([]entry, cfg.Assoc)
	}
	d := &DTB{cfg: cfg, sets: sets, nsets: nsets}
	if cfg.Policy == VariableOverflow {
		d.free = cfg.OverflowUnits
	}
	return d, nil
}

// Config returns the DTB configuration.
func (d *DTB) Config() Config { return d.cfg }

// Sets returns the number of sets.
func (d *DTB) Sets() int { return d.nsets }

// Stats returns accumulated statistics.
func (d *DTB) Stats() Stats { return d.stats }

// ResetStats clears statistics without flushing contents.
func (d *DTB) ResetStats() { d.stats = Stats{} }

// Reset returns the DTB to its freshly constructed state — contents flushed
// (which returns every overflow block), statistics zeroed, clock rewound —
// so a replayed run behaves exactly like a run against a new DTB.
func (d *DTB) Reset() {
	d.Flush()
	d.stats = Stats{}
	d.clock = 0
}

// setOf hashes a DIR address to its set.
func (d *DTB) setOf(dirAddr uint64) int {
	// Simple modulo hashing of the DIR instruction address, as in Figure 2
	// ("set selected by hashing DIR address").
	return int(dirAddr % uint64(d.nsets))
}

// Lookup presents a DIR instruction address to the associative address array.
// On a hit it refreshes the entry's recency and returns the length in words
// of the resident PSDER translation — the buffer-array references fetching it
// costs — and true.  On a miss it returns 0 and false; the caller (the INTERP
// trap path) is then expected to run the dynamic translator and Install the
// result.
func (d *DTB) Lookup(dirAddr uint64) (int, bool) {
	d.clock++
	d.stats.Lookups++
	set := d.sets[d.setOf(dirAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == dirAddr {
			set[i].lastUse = d.clock
			d.stats.Hits++
			return set[i].length, true
		}
	}
	d.stats.Misses++
	return 0, false
}

// Contains reports residency without touching statistics or recency.
func (d *DTB) Contains(dirAddr uint64) bool {
	set := d.sets[d.setOf(dirAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == dirAddr {
			return true
		}
	}
	return false
}

// Install stores an n-word PSDER translation of the DIR instruction at
// dirAddr, replacing the least recently used entry of the selected set.
// Under the Fixed policy the translation must fit in one unit of allocation;
// under VariableOverflow additional blocks are taken from the overflow area.
// Every placement decision — victim choice, overflow allocation, rejection —
// depends only on translation lengths, which is all the buffer keeps.
func (d *DTB) Install(dirAddr uint64, n int) error {
	if n == 0 {
		return errors.New("dtb: empty translation")
	}
	needUnits := (n + d.cfg.UnitWords - 1) / d.cfg.UnitWords
	if d.cfg.Policy == Fixed && needUnits > 1 {
		d.stats.RejectedSize++
		return fmt.Errorf("%w: %d words > unit of %d", ErrTooLarge, n, d.cfg.UnitWords)
	}

	set := d.sets[d.setOf(dirAddr)]
	// If the tag is already present (e.g. re-translation), replace in place.
	victim := -1
	for i := range set {
		if set[i].valid && set[i].tag == dirAddr {
			victim = i
			break
		}
	}
	if victim == -1 {
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
		d.stats.Evictions++
	}
	e := &set[victim]
	// Release any overflow blocks held by the entry being replaced.
	d.releaseOverflow(e)

	if need := needUnits - 1; need > 0 {
		if d.free < need {
			// Not enough overflow space: leave the entry invalid and report.
			e.valid = false
			d.stats.RejectedSize++
			return fmt.Errorf("%w: need %d blocks, %d free", ErrNoOverflow, need, d.free)
		}
		d.free -= need
		e.overflow = need
		d.stats.Overflows++
	}

	e.valid = true
	e.tag = dirAddr
	e.length = n
	d.clock++
	e.lastUse = d.clock
	d.stats.Installs++
	return nil
}

// releaseOverflow returns an entry's overflow blocks to the overflow area.
func (d *DTB) releaseOverflow(e *entry) {
	d.free += e.overflow
	e.overflow = 0
}

// Invalidate removes the translation for dirAddr, if present.  The dynamic
// translator uses this when the static program is replaced (the paper assumes
// non-self-modifying programs, so this happens only between runs).
func (d *DTB) Invalidate(dirAddr uint64) bool {
	set := d.sets[d.setOf(dirAddr)]
	for i := range set {
		if set[i].valid && set[i].tag == dirAddr {
			d.releaseOverflow(&set[i])
			set[i].valid = false
			set[i].length = 0
			d.stats.Invalidates++
			return true
		}
	}
	return false
}

// Flush invalidates every entry.
func (d *DTB) Flush() {
	for i := range d.sets {
		for j := range d.sets[i] {
			d.releaseOverflow(&d.sets[i][j])
			d.sets[i][j].valid = false
			d.sets[i][j].length = 0
		}
	}
}

// Resident returns the number of valid entries.
func (d *DTB) Resident() int {
	n := 0
	for _, set := range d.sets {
		for _, e := range set {
			if e.valid {
				n++
			}
		}
	}
	return n
}

// FreeOverflowBlocks returns the number of unallocated overflow blocks.
func (d *DTB) FreeOverflowBlocks() int { return d.free }

// ResidentTags returns the DIR addresses currently translated, in arbitrary
// order.  It is intended for tests and diagnostics.
func (d *DTB) ResidentTags() []uint64 {
	var tags []uint64
	for _, set := range d.sets {
		for _, e := range set {
			if e.valid {
				tags = append(tags, e.tag)
			}
		}
	}
	return tags
}

// String summarises the geometry.
func (d *DTB) String() string {
	return fmt.Sprintf("dtb{%d entries, %d-way, %d sets, %d-word units, %s, %d B}",
		d.cfg.Entries, d.cfg.Assoc, d.nsets, d.cfg.UnitWords, d.cfg.Policy, d.cfg.CapacityBytes())
}

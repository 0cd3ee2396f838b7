// Package dtb implements the Dynamic Translation Buffer of §5: the structure
// that "maintains in the dynamic translation buffer (DTB) a representation of
// the instruction working set that is more tightly bound than the static
// representation".
//
// The organisation follows Figure 2:
//
//   - an associative address array, split into the associative tag array
//     (holding the DIR instruction address) and the address array (holding
//     the buffer-array address of the PSDER translation),
//   - a buffer array holding the PSDER instruction sequences, carved into
//     units of allocation,
//   - a replacement array recording the recency ordering of each set.
//
// The DIR address is hashed to select a set (set associativity, nominally of
// degree 4); the set is searched associatively; on a miss the least recently
// used member of the set is chosen for replacement.
//
// Two allocation policies from §5.1 are provided: Fixed, in which every
// translation must fit in one unit of allocation, and VariableOverflow, in
// which a translation larger than the unit receives additional fixed-size
// blocks from a secondary overflow area which are linked to the primary unit.
//
// The buffer array is modelled by its units, overflow blocks and translation
// lengths, not by the words themselves: placement, replacement and the
// buffer-array references a hit or an install costs depend on lengths alone,
// and the PSDER sequences are already held by the predecoded program.
// Lookup returns the resident length; Install takes one.
package dtb

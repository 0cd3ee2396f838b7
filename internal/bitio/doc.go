// Package bitio provides bit-granular readers and writers whose fields may
// span the boundaries of the underlying memory units (bytes or words).
//
// The paper's encoded directly interpretable representations (DIRs) pack
// fields of arbitrary width "together and allowed to span the boundaries of
// the units of memory access" (§3.2).  Every encoder in internal/encoding is
// built on top of this package, as is the binary emission of DIR programs in
// internal/dir.
//
// Bits are written and read most-significant-bit first within each byte, so
// the bit at absolute position 0 is the top bit of the first byte.  This
// matches the field diagrams of the era (opcode field leftmost) and makes the
// dumps produced by cmd/uhmasm readable against the paper's Table 1.
//
// The reader and writer operate word-at-a-time: a field is gathered or
// scattered through a 64-bit accumulator over the byte buffer instead of one
// bit per iteration.  reference_test.go retains the original bit-at-a-time
// implementation, which the differential tests in this package hold the fast
// paths to, bit for bit.
package bitio

// Package memory models the two-level memory hierarchy the paper assumes: "a
// small, fast first level memory along with a large and relatively slow
// second level" (§3.1).  All times are expressed in level-1 access-time
// units, exactly as in the Section 7 analysis where t1 = 1.
//
// The model covers capacity and cost only, never contents:
//
//   - per-level access times and reference/time accounting,
//   - segments allocated within a level (the DIR program, the interpreter
//     and semantic routines, the DTB buffer array, the cache data array),
//     each checked against the level's capacity (ErrOutOfMemory),
//   - bounds-checked word references into a segment.
//
// The bits themselves live where they are built: the DIR program's in
// dir.Binary.  Bit-granular access ("high memory resolution, i.e. the ability
// to view the memory space as a bit string", §6.1) is charged by the words an
// instruction's bit range spans, one reference each.
package memory

// Package trace records one canonical execution of a DIR program as a
// compact execution trace — the dynamic pc sequence, the program output, the
// activation-stack high-water mark and the total host semantic cost — so that
// every machine organisation's cost report can be derived by streaming the
// trace through that organisation's cost model instead of re-executing the
// program's semantics.
//
// This is the simulator finally practising what the paper preaches: Rau's
// argument is that binding work should be done once and buffered, and the
// program's semantics are the most expensive binding of all.  One traced run
// on the closure-compiled backend feeds the conventional, DTB, cache,
// expanded and compiled cost derivations in internal/sim; a program that does
// not compile has no trace and is simulated in full.
//
// Exactness is the design constraint.  The per-instruction host semantic cost
// is a static function of the instruction's PSDER translation and its contour
// (SemCosts) — the only dynamic inputs the host cost model has are the
// static-link hop counts and argument counts, and both are compile-time
// constants of the instruction.  Recording verifies the assumption: the
// compiled backend checks every up-level access at run time.  A missing or
// out-of-bounds trace is not patched over; the caller falls back to full
// simulation.
package trace

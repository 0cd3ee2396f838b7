// Package psder defines the procedurally-structured directly executable
// representation (PSDER) of §3.1 and the short-format instruction set
// recognised by the UHM's second instruction unit (IU2, §6.2).
//
// A PSDER sequence is what the dynamic translator produces for one DIR
// instruction and what the DTB's buffer array stores: a short string of
// CALL / PUSH / POP / INTERP instructions that "steer control to the
// appropriate semantic routines and pass parameters".  The instruction set is
// deliberately tiny and vertical ("the instruction set for IU2 must be of a
// short, vertical format"), and every sequence ends with an INTERP
// instruction that names — immediately or via the operand stack — the next
// DIR instruction to interpret.
//
// Each short-format instruction occupies one 32-bit buffer-array word, so a
// sequence's length in instructions is its size in the DTB (the paper's s1);
// Sequence.Validate enforces the 24-bit argument field that makes every
// instruction fit its word.
package psder

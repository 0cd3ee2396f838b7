// Package host implements the universal host machine of §6: the engine that
// executes PSDER sequences.  IU2 issues the short-format instructions (PUSH,
// POP, CALL, INTERP); each CALL hands control to IU1, which runs the named
// semantic routine expressed in long-format instructions and returns.  The
// package accounts the cost of both units in level-1 cycle units, producing
// the paper's parameter x per DIR instruction, but it charges no memory-fetch
// cost — where the short-format words and the DIR bits come from (DTB, cache
// or level-2 memory) is the simulator's concern, because that placement is
// precisely what the three organisations of §7 vary.  Nor does it count
// activity per op; core.Engine.Figure3 does, over each sequence's executed
// prefix.
package host

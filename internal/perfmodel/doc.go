// Package perfmodel implements the Section 7 analytic performance model: the
// average DIR instruction interpretation time of the three organisations the
// paper compares —
//
//	T1: a conventional UHM (fetch from level 2, decode, execute semantics),
//	T2: a UHM equipped with a dynamic translation buffer,
//	T3: a UHM equipped with an instruction cache on the level-2 memory,
//
// plus, as this reproduction's extension beyond the paper,
//
//	T4: a closure-compiled organisation (the fifth organisation of
//	    internal/sim) in which all binding is performed once at compile
//	    time and the native code is resident in level-1 memory, so an
//	    instruction costs one level-1 fetch plus its semantics,
//
// and the two figures of merit
//
//	F1 = (T3 − T2)/T2 × 100  — the percentage increase in interpretation
//	     time caused by using the DTB's resources as a plain instruction
//	     cache instead (Table 2), and
//	F2 = (T1 − T2)/T2 × 100  — the percentage increase caused by not using
//	     a DTB at all (Table 3),
//
// with F3 = (T2 − T4)/T4 × 100 — the further gain full compilation offers
// over the DTB — reported alongside them for the extension.
//
// Two entry points are provided.  Evaluate applies the symbolic equations to
// any parameter set, so the model can be driven by values measured on the
// simulator (internal/sim).  Table2 and Table3 regenerate the paper's
// published grids exactly, using the closed-form expressions of §7 (the
// paper prints F2 = (7.4 + 0.6d)/(8 + 0.4d + x) × 100; the matching Table 2
// closed form is (0.4 + 0.6d)/(8 + 0.4d + x) × 100).  Note that the closed
// forms embody the paper's worked substitution of its nominal parameters.
package perfmodel

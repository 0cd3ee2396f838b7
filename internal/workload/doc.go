// Package workload supplies the programs the experiments run on:
//
//   - a library of MiniLang source programs chosen to exercise the behaviours
//     the paper's argument rests on — tight loops (high locality), deep
//     recursion and call-heavy code (working-set churn), array sweeps and
//     mixed arithmetic — standing in for the FORTRAN/ALGOL-style programs of
//     the era;
//   - the catalogue of seeded generator archetypes (internal/workload/gen),
//     controlled locality profiles for population experiments.
package workload

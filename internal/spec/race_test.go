//go:build race

package spec

// raceEnabled reports a -race build. The race runtime makes sync.Pool.Put
// drop one item in four at random, so pooled state is reallocated at random
// and a run's allocated bytes stop being deterministic; allocation budgets
// hold only without -race.
const raceEnabled = true

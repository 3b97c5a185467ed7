//go:build race

package oovr_test

// raceEnabled reports a -race build. The race runtime makes sync.Pool.Put
// drop one item in four at random, so allocation counts hold only without
// -race.
const raceEnabled = true

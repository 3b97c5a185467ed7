//go:build race

package server

// raceEnabled reports a -race build. The race runtime makes sync.Pool.Put
// drop one item in four at random, so encoding/json's pooled encoder state
// is reallocated at random and allocation counts through json.Marshal stop
// being deterministic; allocation pins that hash a spec hold only without
// -race.
const raceEnabled = true

//go:build !race

package spec

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false

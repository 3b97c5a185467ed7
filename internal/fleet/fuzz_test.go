package fleet

import "testing"

// FuzzParseChaos feeds arbitrary -chaos flag values to ParseChaos.
// Properties: parsing never panics, and every accepted value holds three
// probabilities in [0,1] (NaN included in neither) that sum to at most 1 —
// anything else would arm the worker with faults it can never fire, or
// silently disarm it.
//
// The seed corpus in testdata/fuzz/FuzzParseChaos holds valid flags and
// the non-finite spellings. Run it longer with
//
//	go test -run '^$' -fuzz FuzzParseChaos -fuzztime 10s ./internal/fleet
func FuzzParseChaos(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseChaos(s)
		if err != nil {
			return
		}
		for _, p := range []float64{c.Crash, c.Stall, c.Corrupt} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseChaos(%q) accepted probability %v: %+v", s, p, c)
			}
		}
		if sum := c.Crash + c.Stall + c.Corrupt; sum > 1 {
			t.Fatalf("ParseChaos(%q) accepted probabilities summing to %v", s, sum)
		}
	})
}

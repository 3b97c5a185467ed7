package main

import (
	"maps"
	"testing"

	"oovr/internal/multigpu"
	"oovr/internal/spec"
)

// A harness that memoizes its duplicate runs calls the Runner fewer times.
// That is a gain the benchmark must credit, so the pinned digests may not
// notice it.
func TestFiguresDigestsIgnoreSkippedDuplicateRuns(t *testing.T) {
	// Two cycles, so the second one repeats every run of the first.
	c := config{seed: 3, seconds: 2 * figuresNominal, smoke: true}
	digests := func(memoize bool) (map[string]string, int) {
		rec := newRecorder(nil)
		bb, err := setupFigures(c, rec)
		if err != nil {
			t.Fatal(err)
		}
		b := bb.(*figuresBench)
		calls := 0
		inner := b.opt.Runner
		seen := map[string]multigpu.Metrics{}
		b.opt.Runner = func(rs spec.RunSpec) (multigpu.Metrics, error) {
			h, err := rs.Hash()
			if err != nil {
				return multigpu.Metrics{}, err
			}
			if m, ok := seen[h]; ok && memoize {
				return m, nil
			}
			calls++
			m, err := inner(rs)
			seen[h] = m
			return m, err
		}
		b.run(rec)
		if rec.failures() > 0 {
			t.Fatalf("memoize=%v: %v", memoize, rec.notes)
		}
		out := map[string]string{}
		for _, u := range rec.units {
			out[u.key] = u.digest
		}
		return out, calls
	}
	plain, all := digests(false)
	memo, distinct := digests(true)
	if distinct >= all {
		t.Fatalf("the smoke experiments repeat no run (%d calls, %d distinct); the test checks nothing", all, distinct)
	}
	if !maps.Equal(plain, memo) {
		t.Errorf("digests changed when %d of %d runs were skipped:\n plain %v\n memo  %v", all-distinct, all, plain, memo)
	}
}

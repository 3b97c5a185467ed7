package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// pinnedSeeds are the seeds expected.json pins.
var pinnedSeeds = []int64{1, 2}

// expectedJSON maps workload → seed → unit key → sha256 of the unit's
// output: a rendered figure, a serving cell's report, a fleet sweep's
// result bodies in order, or oovrd's pre-fill result bodies.
//
//go:embed expected.json
var expectedJSON []byte

var expected = func() map[string]map[string]map[string]string {
	var m map[string]map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("expected.json: %v", err))
	}
	return m
}()

// pinsFor returns the pinned digests of one workload at one seed, or nil.
func pinsFor(workload string, seed int64) map[string]string {
	return expected[workload][strconv.FormatInt(seed, 10)]
}

// pinMain implements `oovrbench pin`: it computes every unit's digest at
// the pinned seeds and prints a new expected.json. Each unit runs once;
// a unit that repeats must repeat its digest.
func pinMain(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: oovrbench pin > bench/expected.json")
		return 2
	}
	out := map[string]map[string]map[string]string{}
	for _, w := range workloads {
		out[w.name] = map[string]map[string]string{}
		for _, seed := range pinnedSeeds {
			units, err := allUnits(w, seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pin: %s seed %d: %v\n", w.name, seed, err)
				return 1
			}
			out[w.name][strconv.FormatInt(seed, 10)] = units
			fmt.Fprintf(os.Stderr, "pin: %s seed %d: %d units\n", w.name, seed, len(units))
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pin:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// allUnits runs a workload's set-up and timed phase once, at --seconds 12,
// which covers every unit its runs can produce: each unit of the fixed-work
// workloads, and oovrd_hit's set-up bodies. A unit that repeats must repeat
// its digest.
func allUnits(w workloadDef, seed int64) (map[string]string, error) {
	rec := newRecorder(nil)
	b, err := w.setup(config{seed: seed, seconds: 12}, rec)
	if err != nil {
		return nil, err
	}
	b.run(rec)
	b.close()
	if rec.failures() > 0 {
		return nil, fmt.Errorf("checks failed: %v", rec.notes)
	}
	units := map[string]string{}
	for _, u := range rec.units {
		if d, ok := units[u.key]; ok && d != u.digest {
			return nil, fmt.Errorf("%s: digest changed between repetitions", u.key)
		}
		units[u.key] = u.digest
	}
	return units, nil
}

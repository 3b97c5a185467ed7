package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparator reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict compares one end-to-end metric of one workload across two sets
// of runs: parent (a) and change (b), paired by position.
type verdict struct {
	aMed, aQ1, aQ3 float64
	bMed, bQ1, bQ3 float64
	worse          float64 // relative change, positive = worse
	wins, pairs    int     // pairs the change won
	call           string  // ok, worse, better or unresolved
}

// floors are absolute tolerances, in the metric's unit, below which a
// difference is never called worse and a spread never unresolved: set-up
// runs for tens of milliseconds, where a bound of 25% is a few
// milliseconds of scheduler noise.
var floors = map[string]float64{"setup_s": 0.025}

// judge applies the benchmark's rules. The tolerance is the bound's share
// of the parent's median, or floor when that is larger. A change is worse
// when its median is worse than the parent's by more than the tolerance.
// Where the parent's own spread (interquartile range) exceeds the
// tolerance the metric is unresolved, unless every change run beats every
// parent run. A gain needs the change to win at least 9 of 10 pairs and
// the medians to differ by more than the parent's interquartile range.
func judge(a, b []float64, lowerIsBetter bool, bound, floor float64) verdict {
	v := verdict{aMed: median(a), bMed: median(b)}
	v.aQ1, v.aQ3 = quartiles(a)
	v.bQ1, v.bQ3 = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	worse := v.bMed - v.aMed // in the metric's unit, positive = worse
	if !lowerIsBetter {
		worse = -worse
	}
	v.worse = worse / v.aMed
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	worstB, bestA := slices.Max(b), slices.Min(a)
	if !lowerIsBetter {
		worstB, bestA = slices.Min(b), slices.Max(a)
	}
	tol := max(bound*math.Abs(v.aMed), floor)
	iqr := v.aQ3 - v.aQ1
	switch {
	case iqr > tol:
		v.call = "unresolved"
		if better(worstB, bestA) {
			v.call = "better"
		}
	case worse > tol:
		v.call = "worse"
	case worse < 0 && v.wins*10 >= 9*v.pairs && -worse > iqr:
		v.call = "better"
	default:
		v.call = "ok"
	}
	return v
}

// compareMain implements `oovrbench compare PARENT.jsonl CHANGE.jsonl`.
// It exits 1 when any verdict is worse or unresolved.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration with the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: oovrbench compare [-bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	var bf benchmarkFile
	if err := readJSON(*benchPath, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	sides := make([][]record, 2)
	for i, p := range fs.Args() {
		recs, err := readRecords(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		sides[i] = recs
	}
	bad := compare(os.Stdout, bf, sides[0], sides[1])
	if bad > 0 {
		return 1
	}
	return 0
}

// compare prints one row per (workload, end-to-end metric) present on both
// sides and returns how many rows are worse or unresolved.
func compare(w io.Writer, bf benchmarkFile, a, b []record) int {
	values := func(recs []record, wl, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == wl && !r.Trace {
				if m, ok := r.Result.Metrics[metric]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tbound\twins\tverdict")
	bad := 0
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			av, bv := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, m.Better == "lower", m.Bound, floors[m.Name])
			if v.call == "worse" || v.call == "unresolved" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%% worse\t%.0f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, v.aMed, v.aQ1, v.aQ3, v.bMed, v.bQ1, v.bQ3,
				100*v.worse, 100*m.Bound, v.wins, v.pairs, v.call)
		}
	}
	tw.Flush()
	return bad
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// readRecords reads a JSONL archive of runs written by --append.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

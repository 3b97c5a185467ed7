// Package stats provides the small aggregation and table-rendering helpers
// the experiment harness uses to present figure series the way the paper
// reports them: per-benchmark bars normalized to a baseline, with a
// geometric-mean (or arithmetic-mean) summary column.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (0 for empty input; panics on
// non-positive values, which indicate a broken ratio upstream).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Series is one line/bar group of a figure: a named sequence of values
// aligned with the figure's x-axis labels.
type Series struct {
	Name   string
	Values []float64
}

// Figure is a reproduction of one paper figure: x-axis labels plus one or
// more series, with a caption describing the metric.
type Figure struct {
	ID      string // "Figure 9"
	Caption string
	XLabels []string
	Series  []Series
}

// AddSeries appends a series, enforcing x-axis alignment.
func (f *Figure) AddSeries(name string, values []float64) {
	if len(values) != len(f.XLabels) {
		panic(fmt.Sprintf("stats: series %q has %d values for %d labels", name, len(values), len(f.XLabels)))
	}
	f.Series = append(f.Series, Series{Name: name, Values: values})
}

// SeriesByName returns the named series.
func (f *Figure) SeriesByName(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Render formats the figure as a fixed-width table with a mean column.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Caption)
	nameW := len("series")
	for _, s := range f.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	colW := 9
	for _, l := range f.XLabels {
		if len(l)+1 > colW {
			colW = len(l) + 1
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW, "series")
	for _, l := range f.XLabels {
		fmt.Fprintf(&b, "%*s", colW, l)
	}
	fmt.Fprintf(&b, "%*s\n", colW, "mean")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-*s", nameW, s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&b, "%*.2f", colW, v)
		}
		fmt.Fprintf(&b, "%*.2f\n", colW, Mean(s.Values))
	}
	return b.String()
}

// CSV renders the figure as comma-separated rows (label header + one row
// per series).
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("series")
	for _, l := range f.XLabels {
		b.WriteString("," + l)
	}
	b.WriteString("\n")
	for _, s := range f.Series {
		b.WriteString(s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SortedKeys returns the sorted keys of a string-keyed map, for
// deterministic iteration in reports.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package experiments

import (
	"encoding/json"
	"fmt"

	"oovr/internal/core"
	"oovr/internal/multigpu"
	"oovr/internal/spec"
	"oovr/internal/stats"
)

// oovrParams serializes an OOVR variant into the registered "oovr"
// factory's params (the factory's own struct, so the wire format cannot
// drift), making every ablation run a plain RunSpec.
func oovrParams(v core.OOVR) json.RawMessage {
	b, err := json.Marshal(spec.OOVRParams{
		TSLThreshold:          v.Middleware.TSLThreshold,
		TriangleCap:           v.Middleware.TriangleCap,
		DisablePredictor:      v.DisablePredictor,
		DisableDHC:            v.DisableDHC,
		DisableStragglerSplit: v.DisableStragglerSplit,
	})
	if err != nil {
		panic(err)
	}
	return b
}

// The ablations isolate OO-VR's three mechanisms (DESIGN.md §4). Each
// reports single-frame speedup over the baseline, averaged across cases,
// for the full design and the design with one mechanism removed.

// A1NoBatching isolates the TSL middleware: OO-VR with per-object batches
// (threshold 1.0 disables grouping; the cap is irrelevant then).
func A1NoBatching(o Options) stats.Figure {
	full := core.NewOOVR()
	noBatch := core.NewOOVR()
	noBatch.Middleware.TSLThreshold = 1.0 // TSL can never exceed 1, so no grouping
	return ablationFigure(o, "Ablation A1", "value of Equation (1) TSL batching", map[string]core.OOVR{
		"OOVR (full)":       full,
		"OOVR w/o batching": noBatch,
	})
}

// A2NoPredictor isolates the Equation (3) rendering-time predictor: batches
// fall back to round-robin placement.
func A2NoPredictor(o Options) stats.Figure {
	full := core.NewOOVR()
	noPred := core.NewOOVR()
	noPred.DisablePredictor = true
	return ablationFigure(o, "Ablation A2", "value of the runtime distribution engine", map[string]core.OOVR{
		"OOVR (full)":         full,
		"OOVR w/ round-robin": noPred,
	})
}

// A3NoDHC isolates the distributed hardware composition: composition falls
// back to the master node.
func A3NoDHC(o Options) stats.Figure {
	full := core.NewOOVR()
	noDHC := core.NewOOVR()
	noDHC.DisableDHC = true
	return ablationFigure(o, "Ablation A3", "value of distributed hardware composition", map[string]core.OOVR{
		"OOVR (full)":  full,
		"OOVR w/o DHC": noDHC,
	})
}

// A4TSLSweep sweeps the TSL threshold and the batch triangle cap around the
// paper's 0.5 / 4096 constants.
func A4TSLSweep(o Options) stats.Figure {
	o = o.defaults()
	base := baselineLatencies(o)
	thresholds := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	caps := []int{1024, 4096, 16384}
	var labels []string
	var vals []float64
	for _, cap := range caps {
		for _, th := range thresholds {
			v := core.NewOOVR()
			v.Middleware.TSLThreshold = th
			v.Middleware.TriangleCap = cap
			labels = append(labels, fmt.Sprintf("th%.1f/cap%d", th, cap))
			vals = append(vals, stats.GeoMean(ratio(base, oovrLatencies(o, v))))
		}
	}
	fig := stats.Figure{
		ID:      "Ablation A4",
		Caption: "frame speedup vs TSL threshold and triangle cap (paper constants: 0.5 / 4096)",
		XLabels: labels,
	}
	fig.AddSeries("OOVR", vals)
	return fig
}

func baselineLatencies(o Options) []float64 {
	return each(o.perCase("baseline", nil, o.sysOptions()), multigpu.Metrics.AvgFrameLatency)
}

func oovrLatencies(o Options, v core.OOVR) []float64 {
	return each(o.perCase("oovr", oovrParams(v), o.sysOptions()), multigpu.Metrics.AvgFrameLatency)
}

func ablationFigure(o Options, id, caption string, variants map[string]core.OOVR) stats.Figure {
	o = o.defaults()
	base := baselineLatencies(o)
	fig := stats.Figure{ID: id, Caption: caption, XLabels: o.caseNames()}
	for _, name := range stats.SortedKeys(variants) {
		fig.AddSeries(name, ratio(base, oovrLatencies(o, variants[name])))
	}
	return fig
}

package experiments

import (
	"oovr/internal/multigpu"
	"oovr/internal/stats"
)

// topologySweep is the topology set FTopology evaluates: the paper's
// idealized full mesh against the shared-link fabrics real NUMA multi-GPU
// parts ship (chain is omitted — it is the ring's strictly worse sibling
// and adds a full scheduler-by-case column for no extra insight).
func topologySweep() []string {
	return []string{"fullmesh", "ring", "mesh2d", "switch", "hierarchical"}
}

// FTopology is the figure the paper's idealized fabric could not draw:
// OO-VR's single-frame speedup over the baseline scheme when the two run on
// the *same* interconnect topology, swept over topology x link bandwidth
// and geomean-aggregated across the benchmark cases. On the full mesh every
// GPM pair owns a dedicated link; on ring/mesh2d flows share hops, on the
// switch they share a backplane budget, and on the hierarchical (MCM-GPU
// style) part they share a slow off-package trunk — the more constrained
// the fabric, the more OO-VR's locality (fewer inter-GPM bytes in flight at
// all) should be worth, which is exactly what this figure measures.
func FTopology(o Options) stats.Figure {
	o = o.defaults()
	bws := []float64{32, 64, 128}
	fig := stats.Figure{
		ID:      "Topology sensitivity",
		Caption: "OOVR single-frame speedup over baseline per interconnect topology and link bandwidth (geomean of cases)",
		XLabels: []string{"32GB/s", "64GB/s", "128GB/s"},
	}
	for _, tn := range topologySweep() {
		vals := make([]float64, len(bws))
		occs := make([]float64, len(bws))
		for bi, bw := range bws {
			sysOpt := o.sysOptions()
			sysOpt.Config = sysOpt.Config.WithTopology(tn).WithLinkGBs(bw)
			base := o.perCase("baseline", nil, sysOpt)
			vr := o.perCase("oovr", nil, sysOpt)
			lat := multigpu.Metrics.AvgFrameLatency
			vals[bi] = stats.GeoMean(ratio(each(base, lat), each(vr, lat)))
			occs[bi] = stats.Mean(each(vr, peakLinkUtil))
		}
		fig.AddSeries(tn, vals)
		// The hottest link's occupancy under OO-VR explains the speedup
		// column above it: a topology whose best link saturates is
		// bandwidth-bound, not scheduler-bound. Derived from the Metrics the
		// speedup runs already produced — no extra simulations, fleet-safe.
		fig.AddSeries(tn+" peak link occ", occs)
	}
	return fig
}

// peakLinkUtil is the busiest physical link's utilization in one run's
// metrics (0 on single-GPM systems).
func peakLinkUtil(m multigpu.Metrics) float64 {
	peak := 0.0
	for _, l := range m.Links {
		if l.Utilization > peak {
			peak = l.Utilization
		}
	}
	return peak
}

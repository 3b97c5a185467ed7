package experiments

import (
	"strconv"

	"oovr/internal/service"
	"oovr/internal/spec"
	"oovr/internal/stats"
)

// fsNodeCounts and fsLambdas define the FS capacity grid: cluster sizes on
// the x-axis, and the ascending arrival-rate sweep each size is probed with.
// The sweep must reach rates that saturate the largest cluster, or the
// figure under-reports its capacity (the spec-level knob for "how hard do we
// push" is the λ sweep, not a closed-loop controller).
func fsNodeCounts() []int           { return []int{1, 2, 4} }
func fsLambdas() []float64          { return []float64{16, 32, 64, 128, 256, 512} }
func fsDeadlineMs() float64         { return 0.2 }
func fsServiceSchedulers() []string { return []string{"baseline", "oovr"} }

// fsSpec is the ServiceSpec behind one FS series: a NodeSweep x LambdaSweep
// capacity probe of clusters running the given intra-node scheduler. The
// sessions are the cheap DM3-640 case so the sweep stays fast, and the
// per-frame deadline is the *render* slice of the 90 Hz budget — in a cloud
// VR pipeline encode, transport, decode and display own most of the 11.1 ms
// frame time, so the GPU must finish in a fraction of it. 0.2 ms sits ~2x above
// baseline DM3-640's steady frame cost and ~5x above OO-VR's, which is what
// makes held capacity a queueing question the scheduler can win rather than
// an admission-cap constant.
func fsSpec(scheduler string, seed int64) spec.ServiceSpec {
	return spec.ServiceSpec{
		ServiceVersion:     spec.ServiceVersion,
		Nodes:              []spec.NodeGroup{{Count: 1}},
		NodeSweep:          fsNodeCounts(),
		Scheduler:          spec.SchedulerRef{Name: scheduler},
		Sessions:           []spec.SessionMix{{Workload: "DM3-640"}},
		LambdaSweep:        fsLambdas(),
		MeanFrames:         30,
		DeadlineMs:         fsDeadlineMs(),
		HorizonMs:          300,
		MaxSessionsPerNode: 64,
		Seed:               seed,
	}
}

// runService is the serving analogue of runCase: in-process service.Run by
// default, or o.ServiceRunner (a fleet) when set. Reports are
// content-addressed per cell, so a remote runner returns byte-identical
// cells to a local one, and a failure invalidates the figure the same way a
// runCase failure does.
func (o Options) runService(sp spec.ServiceSpec) service.Report {
	var rep service.Report
	var err error
	if o.ServiceRunner != nil {
		rep, err = o.ServiceRunner(sp)
	} else {
		rep, err = service.Run(sp, service.RunOptions{Parallel: o.Parallel})
	}
	if err != nil {
		panic(err)
	}
	return rep
}

// FSCapacity is the serving-capacity figure the paper's single-frame
// speedups imply but never draw: how many concurrent VR sessions a cluster
// holds at the 90 Hz SLO, versus cluster size, for the baseline scheme and
// OO-VR. Each (nodes, scheduler) point sweeps the Poisson arrival rate
// upward and reports the largest peak concurrent session count among cells
// that still met the SLO (p99 within the render deadline, nothing rejected,
// dropped or evicted). OO-VR's lower per-frame cost turns directly into
// held sessions per node, so the gap between the two series is the paper's
// Figure 15 speedup re-expressed as serving capacity.
func FSCapacity(o Options) stats.Figure {
	o = o.defaults()
	counts := fsNodeCounts()
	labels := make([]string, len(counts))
	for i, n := range counts {
		labels[i] = strconv.Itoa(n)
	}
	fig := stats.Figure{
		ID:      "Service capacity",
		Caption: "peak sessions held at the 90Hz SLO vs cluster size (open-loop Poisson arrivals, DM3-640 mix, 0.2ms render deadline)",
		XLabels: labels,
	}
	scheds := fsServiceSchedulers()
	reports := make([]service.Report, len(scheds))
	o.forEach(len(scheds), func(si int) {
		reports[si] = o.runService(fsSpec(scheds[si], o.Seed))
	})
	lambdas := fsLambdas()
	for si, s := range scheds {
		rep := reports[si]
		vals := make([]float64, len(counts))
		// Cells are the NodeSweep x LambdaSweep cross product, row-major
		// with λ innermost (service.CellSpecs order).
		utils := make([]float64, len(counts))
		for ni := range counts {
			held, bestLi := 0, -1
			for li := range lambdas {
				c := rep.Cells[ni*len(lambdas)+li]
				if c.SLOMet && c.PeakSessions > held {
					held, bestLi = c.PeakSessions, li
				}
			}
			vals[ni] = float64(held)
			if bestLi >= 0 {
				utils[ni] = stats.Mean(rep.Cells[ni*len(lambdas)+bestLi].NodeUtilization)
			}
		}
		fig.AddSeries(plannerLabel(s), vals)
		// Mean node occupancy at each size's capacity point: how busy the
		// GPUs are when the cluster is holding its peak load. A scheduler
		// that holds more sessions at the *same* occupancy is genuinely
		// cheaper per frame, not just admitted into more headroom. Read from
		// the capacity sweep's own reports — no extra simulations.
		fig.AddSeries(plannerLabel(s)+" node util", utils)
	}
	return fig
}

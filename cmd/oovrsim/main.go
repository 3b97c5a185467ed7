// Command oovrsim runs one (benchmark, scheduler, hardware) combination on
// the simulator and prints the detailed metrics: total cycles, per-frame
// latency, per-GPM occupancy and the inter-GPM traffic breakdown.
//
// Usage:
//
//	oovrsim [-bench HL2-1280] [-scheme oovr] [-gpms 4] [-link 64]
//	        [-topology fullmesh] [-frames 4] [-seed 1] [-placement striped]
//	        [-all] [-parallel N] [-spec file.json] [-dump-spec]
//	        [-fleet http://host:8037] [-v]
//	oovrsim -service service.json [-parallel N] [-fleet URL] [-json]
//
// -topology selects a registered interconnect topology (fullmesh, ring,
// chain, mesh2d, switch, hierarchical); -v additionally prints every
// physical link's served bytes, busy cycles, utilization and peak queueing
// delay, sorted by link name, so congestion is visible without the figures
// harness.
//
// Every run is a declarative RunSpec underneath: the flags are a thin
// translation layer, -dump-spec prints the spec a flag set denotes (ready
// to POST to the oovrd job server), and -spec runs a spec from a file
// instead of the flags. Scheduler, benchmark and placement names resolve
// through the component registries, so a policy registered by user code is
// addressable here without touching this command.
//
// -service switches the command to the serving simulator: the file is a
// ServiceSpec (internal/service; DESIGN.md §11) describing a cluster, a
// Poisson session arrival process and a routing policy, and the output is
// one row per sweep cell with the p50/p95/p99 frame latencies against the
// render deadline and the SLO verdict. -json prints the canonical Report
// JSON instead — the same bytes oovrd's /service endpoint returns and a
// fleet-sharded run assembles, so the three paths can be diffed directly.
//
// With -all, every registered scheduler runs and prints a comparison;
// -parallel bounds the concurrent simulations (each binds its own system,
// so the printed table is identical to a serial run). -fleet executes the
// same specs through a fleet coordinator instead of in-process: the sweep
// is sharded across whatever workers are pulling from it, each returned
// Result is re-verified against its content address, and the printed
// numbers are bit-identical to a local run.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"oovr/internal/fleet"
	"oovr/internal/multigpu"
	"oovr/internal/obs"
	"oovr/internal/par"
	"oovr/internal/service"
	"oovr/internal/spec"
)

func main() {
	bench := flag.String("bench", "HL2-1280", "benchmark case (e.g. DM3-640, HL2-1280, NFS, UT3, WE)")
	scheme := flag.String("scheme", "oovr", "registered scheduler name")
	gpms := flag.Int("gpms", 4, "number of GPMs")
	linkGBs := flag.Float64("link", 64, "inter-GPM link bandwidth, GB/s per direction")
	topology := flag.String("topology", "", "registered interconnect topology (default fullmesh)")
	frames := flag.Int("frames", 4, "frames to render")
	seed := flag.Int64("seed", 1, "workload synthesis seed (0 normalizes to 1)")
	placement := flag.String("placement", "striped", "registered initial shared-data layout")
	all := flag.Bool("all", false, "run every registered scheduler and print a comparison")
	parallel := flag.Int("parallel", runtime.NumCPU(), "with -all: worker goroutines (output is identical for any value)")
	specPath := flag.String("spec", "", "run this RunSpec file instead of translating the flags")
	servicePath := flag.String("service", "", "run this ServiceSpec file through the serving simulator instead")
	fleetURL := flag.String("fleet", "", "execute via the fleet coordinator at this base URL instead of in-process")
	dumpSpec := flag.Bool("dump-spec", false, "print the run's RunSpec (JSON) and exit without simulating")
	jsonOut := flag.Bool("json", false, "with -service: print the canonical Report JSON instead of the table")
	verbose := flag.Bool("v", false, "also print the frame-phase breakdown, sim-time occupancy and per-link interconnect statistics")
	timelinePath := flag.String("timeline", "", "write the run's simulated-time execution trace (Chrome trace-event / Perfetto JSON) to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}

	// A timeline records an in-process run; a fleet result carries only
	// the content-addressed output, and a run is deterministic, so a
	// fleet-computed spec is X-rayed by running it locally with -spec.
	if *timelinePath != "" && *fleetURL != "" {
		fail(fmt.Errorf("-timeline records in-process; drop -fleet"))
	}
	if *servicePath != "" {
		runService(*servicePath, *fleetURL, *parallel, *jsonOut, *timelinePath)
		return
	}
	if *jsonOut {
		fail(fmt.Errorf("-json applies to -service runs"))
	}
	if *timelinePath != "" && *all {
		fail(fmt.Errorf("-timeline records one run; drop -all or pick one scheduler"))
	}

	// The flags translate to a RunSpec; -spec short-circuits the
	// translation with a stored one.
	var base spec.RunSpec
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			fail(err)
		}
		base, err = spec.Decode(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		opt := multigpu.DefaultOptions()
		opt.Config = opt.Config.WithGPMs(*gpms).WithLinkGBs(*linkGBs).WithTopology(*topology)
		base = spec.RunSpec{
			Workload:  spec.WorkloadRef{Name: *bench},
			Scheduler: spec.SchedulerRef{Name: *scheme},
			Hardware:  &opt,
			Placement: *placement,
			Frames:    *frames,
			Seed:      *seed,
		}
	}

	specs := []spec.RunSpec{base}
	if *all {
		names := spec.PlannerNames()
		specs = make([]spec.RunSpec, len(names))
		for i, n := range names {
			s := base
			s.Scheduler = spec.SchedulerRef{Name: n}
			specs[i] = s
		}
	}

	// Resolve everything up front: an unknown name reports the registered
	// alternatives before any simulation starts, and each spec resolves
	// exactly once.
	runs := make([]*spec.Run, len(specs))
	for i, s := range specs {
		r, err := s.Resolve()
		if err != nil {
			fail(err)
		}
		runs[i] = r
	}

	if *dumpSpec {
		dump(specs, *all)
		return
	}

	// -timeline asks the run to record; plain -v gets a local recording
	// too, for the occupancy table.
	if (*timelinePath != "" || *verbose) && !*all && *fleetURL == "" {
		runs[0].Timeline = obs.NewTimeline()
	}

	ms := make([]multigpu.Metrics, len(specs))
	if *fleetURL != "" {
		// The coordinator shards the sweep across its workers; results come
		// back in submission order and are re-verified against their content
		// addresses here, so the table below is bit-identical to in-process
		// execution no matter which machines computed it.
		c := &fleet.Client{URL: strings.TrimRight(*fleetURL, "/")}
		bodies, err := c.RunMatrix(context.Background(), specs)
		if err != nil {
			fail(err)
		}
		for i, b := range bodies {
			res, err := fleet.DecodeVerifiedResult(b)
			if err != nil {
				fail(err)
			}
			ms[i] = res.Metrics
		}
	} else {
		// Each scheduler simulates on its own system, so the comparison rows
		// compute concurrently; printing stays in registry order.
		par.ForEach(*parallel, len(runs), func(i int) {
			ms[i] = runs[i].Execute()
		})
	}

	if *all {
		n, err := base.Normalized()
		if err != nil {
			fail(err)
		}
		topoName := n.Hardware.Config.Topology
		if topoName == "" {
			topoName = "fullmesh"
		}
		fmt.Printf("%s  %d GPMs  %g GB/s links  %s  %d frames\n\n",
			ms[0].Workload, n.Hardware.Config.NumGPMs, n.Hardware.Config.InterGPMLinkGBs, topoName, n.Frames)
		fmt.Printf("%-16s %14s %14s %14s %10s\n", "scheme", "cycles/frame", "frame latency", "inter-GPM MB", "busy max/min")
		for _, m := range ms {
			fmt.Printf("%-16s %14.0f %14.0f %14.1f %10.2f\n",
				m.Scheme, m.FPSCycles(), m.AvgFrameLatency(), m.InterGPMBytes/1e6, m.BestToWorstBusyRatio())
		}
		return
	}
	if *timelinePath != "" {
		if err := writeTimeline(*timelinePath, runs[0].Timeline.EncodeTraceEvents()); err != nil {
			fail(err)
		}
	}

	printMetrics(ms[0])
	if *verbose {
		if *fleetURL == "" {
			printPhases(runs[0].Phases)
			printUtilization(runs[0].Timeline)
		}
		printLinks(ms[0])
	}
}

// writeTimeline stores an encoded trace-event document and prints where
// it went plus its fingerprint (what the golden smoke test pins).
func writeTimeline(path string, enc []byte) error {
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return err
	}
	sum := sha256.Sum256(enc)
	fmt.Printf("timeline:          %s (%d bytes, sha256 %s)\n", path, len(enc), hex.EncodeToString(sum[:])[:16])
	return nil
}

// printUtilization renders the derived sim-time occupancy: each lane's
// busy fraction over 8 windows of the recorded horizon. Lanes that never
// carried a span are omitted.
func printUtilization(tl *obs.Timeline) {
	utils, horizon := tl.Utilization(8)
	if len(utils) == 0 {
		return
	}
	fmt.Printf("sim-time occupancy (8 windows over %.0f µs):\n", horizon)
	for _, u := range utils {
		fmt.Printf("  %-16s", u.Proc+"/"+u.Lane)
		for _, b := range u.Busy {
			fmt.Printf(" %3.0f%%", 100*b)
		}
		fmt.Println()
	}
}

// printPhases renders the run's frame-phase cycle breakdown: where the
// simulated time went — data distribution, pre-allocation, rendering, and
// the composition excess beyond rendering.
func printPhases(p multigpu.PhaseCycles) {
	total := float64(p.Ship + p.Migrate + p.Execute + p.Compose)
	if total == 0 {
		total = 1 // all-zero breakdown prints 0.0% rows, not NaN
	}
	fmt.Println("frame phases (cycles, summed over GPMs):")
	row := func(name string, v float64) {
		fmt.Printf("  %-12s %14.0f %6.1f%%\n", name, v, 100*v/total)
	}
	row("ship", float64(p.Ship))
	row("migrate", float64(p.Migrate))
	row("execute", float64(p.Execute))
	row("compose", float64(p.Compose))
}

// runService executes a ServiceSpec file through the serving simulator —
// in-process (cells spread over -parallel workers) or sharded across a
// fleet one cell per task — and prints the per-cell capacity table or, with
// -json, the canonical Report bytes. Both paths produce byte-identical
// Reports: cells are content-addressed and every random draw derives from
// the cell spec itself.
func runService(path, fleetURL string, parallel int, jsonOut bool, timelinePath string) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	sp, err := spec.DecodeService(f)
	f.Close()
	if err != nil {
		fail(err)
	}

	var rep service.Report
	switch {
	case fleetURL != "":
		c := &fleet.Client{URL: strings.TrimRight(fleetURL, "/")}
		rep, err = c.RunService(context.Background(), sp)
	case timelinePath != "":
		rep, err = recordCell(sp, timelinePath)
	default:
		rep, err = service.Run(sp, service.RunOptions{Parallel: parallel})
	}
	if err != nil {
		fail(err)
	}

	if jsonOut {
		b, err := rep.Encode()
		if err != nil {
			fail(err)
		}
		fmt.Println(string(b))
		return
	}
	printReport(rep)
}

// recordCell runs a single-cell ServiceSpec in-process with a timeline
// attached, writes the trace to path, and returns the spec's Report.
func recordCell(sp spec.ServiceSpec, path string) (service.Report, error) {
	cells, err := service.CellSpecs(sp)
	if err != nil {
		return service.Report{}, err
	}
	if len(cells) != 1 {
		return service.Report{}, fmt.Errorf("-timeline records one cell; the spec sweeps %d", len(cells))
	}
	c, err := service.OpenCell(cells[0])
	if err != nil {
		return service.Report{}, err
	}
	tl := obs.NewTimeline()
	c.AttachTimeline(tl)
	for c.Step() {
	}
	if err := writeTimeline(path, tl.EncodeTraceEvents()); err != nil {
		return service.Report{}, err
	}
	return service.NewReport(sp, []service.CellReport{c.Report()})
}

// printReport renders a service Report as the capacity table: one row per
// sweep cell, latencies in ms against the render deadline.
func printReport(rep service.Report) {
	n := rep.Spec
	fmt.Printf("service %s\n", rep.SpecHash[:12])
	fmt.Printf("scheduler: %s   router: %s   deadline: %.4gms at %gHz   horizon: %gms   cap: %d/node\n\n",
		n.Scheduler.Name, n.Router.Name, n.DeadlineMs, n.RefreshHz, n.HorizonMs, n.MaxSessionsPerNode)
	fmt.Printf("%5s %8s %8s %8s %8s %8s %6s %8s %8s %8s %6s %6s  %s\n",
		"nodes", "lambda", "arrived", "admit", "reject", "evicted", "peak", "p50 ms", "p95 ms", "p99 ms", "late", "drop", "slo")
	for _, c := range rep.Cells {
		verdict := "FAIL"
		if c.SLOMet {
			verdict = "ok"
		}
		fmt.Printf("%5d %8g %8d %8d %8d %8d %6d %8.3f %8.3f %8.3f %6d %6d  %s\n",
			c.Nodes, c.Lambda, c.Arrivals, c.Admitted, c.Rejected, c.DroppedSessions,
			c.PeakSessions, c.P50Ms, c.P95Ms, c.P99Ms, c.LateFrames, c.DroppedFrames, verdict)
	}
}

// printLinks renders the per-physical-link interconnect statistics; the
// metrics carry them already sorted by link name.
func printLinks(m multigpu.Metrics) {
	if len(m.Links) == 0 {
		fmt.Println("interconnect:      none (single GPM)")
		return
	}
	fmt.Println("interconnect links:")
	fmt.Printf("  %-12s %12s %14s %12s %14s\n", "link", "MB served", "busy cycles", "utilization", "peak queue")
	for _, l := range m.Links {
		fmt.Printf("  %-12s %12.1f %14.0f %11.1f%% %14.0f\n",
			l.Name, l.Bytes/1e6, l.BusyCycles, 100*l.Utilization, l.PeakQueueDelay)
	}
}

// dump prints the runnable spec(s) as JSON — one canonical object for one
// run, an array for -all — ready for oovrd's /run or /batch. A single spec's
// bytes are its content address, so oovrd answers a cached one by digest.
func dump(specs []spec.RunSpec, many bool) {
	if !many {
		b, err := specs[0].Canonical()
		if err != nil {
			fail(err)
		}
		fmt.Println(string(b))
		return
	}
	b, err := spec.EncodeArray(specs)
	if err != nil {
		fail(err)
	}
	fmt.Print(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func printMetrics(m multigpu.Metrics) {
	fmt.Printf("workload:          %s\n", m.Workload)
	fmt.Printf("scheme:            %s\n", m.Scheme)
	fmt.Printf("frames:            %d\n", m.Frames)
	fmt.Printf("total cycles:      %.0f\n", m.TotalCycles)
	fmt.Printf("cycles/frame:      %.0f\n", m.FPSCycles())
	fmt.Printf("avg frame latency: %.0f cycles (%.2f ms at 1 GHz)\n", m.AvgFrameLatency(), m.AvgFrameLatency()/1e6)
	fmt.Printf("frame latencies:  ")
	for _, l := range m.FrameLatencies {
		fmt.Printf(" %.0f", l)
	}
	fmt.Println()
	fmt.Printf("GPM busy cycles:  ")
	for _, b := range m.GPMBusyCycles {
		fmt.Printf(" %.0f", b)
	}
	fmt.Printf("   (best-to-worst %.2f)\n", m.BestToWorstBusyRatio())
	fmt.Printf("local DRAM bytes:  %.1f MB\n", m.LocalDRAMBytes/1e6)
	fmt.Printf("inter-GPM bytes:   %.1f MB\n", m.InterGPMBytes/1e6)
	fmt.Printf("  texture:         %.1f MB\n", m.RemoteTextureBytes/1e6)
	fmt.Printf("  vertex:          %.1f MB\n", m.RemoteVertexBytes/1e6)
	fmt.Printf("  depth (Z-test):  %.1f MB\n", m.RemoteDepthBytes/1e6)
	fmt.Printf("  composition:     %.1f MB\n", m.RemoteCompositionBytes/1e6)
	fmt.Printf("  command:         %.1f MB\n", m.RemoteCommandBytes/1e6)
}

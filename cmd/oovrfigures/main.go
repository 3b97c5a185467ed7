// Command oovrfigures regenerates every table and figure of the paper's
// evaluation section and prints them as fixed-width tables (or CSV).
//
// Usage:
//
//	oovrfigures [-exp all|T1|T2|T3|E0|F4|F7|F8|F9|F10|F15|F16|F17|F18|FT|FS|O1|BRK|A1|A2|A3|A4]
//	            [-frames N] [-seed S] [-csv] [-parallel N] [-topology NAME]
//	            [-spec file.json] [-dump-spec] [-fleet http://host:8037]
//
// FT is the post-paper topology-sensitivity figure: OO-VR speedup over the
// baseline per interconnect topology and link bandwidth. -topology runs
// every *other* experiment on a named registered topology (fullmesh, ring,
// chain, mesh2d, switch, hierarchical) instead of the paper's full mesh.
// FS is the serving-capacity figure: concurrent VR sessions a cluster holds
// at the 90 Hz SLO versus cluster size, baseline vs OO-VR, measured by the
// open-loop serving simulator (internal/service; under -fleet its λ-sweep
// cells shard one per worker).
//
// Every simulation the harness performs is a declarative RunSpec
// underneath. -spec uses a stored RunSpec as the run template — its
// hardware options, frames, seed and (when it names one) its workload
// drive the selected experiments, with explicit flags still winning.
// -dump-spec prints exactly the runs the selected figures make (every
// distinct RunSpec, in first-run order, as a JSON array) and exits; POST it
// to the oovrd job server's /batch endpoint to compute the figures' raw
// metrics remotely.
//
// -parallel spreads independent simulation cases across N worker
// goroutines (default: all CPUs). Each case binds its own simulator
// instance and results are assembled by index, so the output is identical
// to a serial (-parallel 1) run. -fleet redirects every simulation to the
// fleet coordinator at the given base URL — sharding a figure across
// machines is that one flag, and because runs are content-addressed the
// printed numbers are bit-identical to a local run (-parallel then bounds
// in-flight fleet requests instead of local simulations).
//
// Each figure's caption restates the paper's reported numbers so the output
// reads as a paper-vs-measured comparison; EXPERIMENTS.md archives one run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"oovr/internal/experiments"
	"oovr/internal/fleet"
	"oovr/internal/gpu"
	"oovr/internal/multigpu"
	"oovr/internal/registry"
	"oovr/internal/service"
	"oovr/internal/spec"
	"oovr/internal/topo"
	"oovr/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (comma separated) or 'all'")
	frames := flag.Int("frames", 0, "frames per simulation run (0: per-experiment default)")
	seed := flag.Int64("seed", 1, "workload synthesis seed")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	parallel := flag.Int("parallel", runtime.NumCPU(), "simulation worker goroutines (output is identical for any value)")
	topology := flag.String("topology", "", "run the experiments on this registered interconnect topology (default fullmesh)")
	specPath := flag.String("spec", "", "RunSpec file used as the experiment template (hardware, frames, seed, workload)")
	dumpSpec := flag.Bool("dump-spec", false, "print the runs the selected figures make as a RunSpec array and exit")
	fleetURL := flag.String("fleet", "", "execute every simulation via the fleet coordinator at this base URL")
	flag.Parse()

	opt := experiments.Options{Frames: *frames, Seed: *seed, Parallel: *parallel}
	if *fleetURL != "" {
		c := &fleet.Client{URL: strings.TrimRight(*fleetURL, "/")}
		opt.Runner = func(rs spec.RunSpec) (multigpu.Metrics, error) {
			return c.RunOne(context.Background(), rs)
		}
		opt.ServiceRunner = func(sp spec.ServiceSpec) (service.Report, error) {
			return c.RunService(context.Background(), sp)
		}
	}
	if *specPath != "" {
		applyTemplate(&opt, *specPath)
	}
	// 0 selects each experiment's default.
	if err := registry.Check("oovrfigures", registry.In("frames", float64(opt.Frames), 0, multigpu.MaxFrames)); err != nil {
		fail(err)
	}
	if *topology != "" {
		// The flag wins over a -spec template's hardware, like the other
		// explicit flags.
		sys := multigpu.DefaultOptions()
		if opt.System != nil {
			sys = *opt.System
		}
		sys.Config = sys.Config.WithTopology(*topology)
		if _, err := topo.Build(sys.Config.TopologyParams()); err != nil {
			fail(err)
		}
		opt.System = &sys
	}
	// The tables, then the figures of experiments.Experiments, in print
	// order; -exp selects from these ids and is checked against them.
	tables := []func(){printTable1, printTable2, printTable3}
	ids := []string{"T1", "T2", "T3"}
	exps := experiments.Experiments()
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		id := strings.ToUpper(strings.TrimSpace(e))
		if !slices.Contains(ids, id) && id != "ALL" {
			fail(fmt.Errorf("-exp: unknown experiment id %q (valid: all, %s)", e, strings.Join(slices.Sorted(slices.Values(ids)), ", ")))
		}
		want[id] = true
	}
	var figs []experiments.Experiment
	for _, e := range exps {
		if want["ALL"] || want[e.ID] {
			figs = append(figs, e)
		}
	}
	if *dumpSpec {
		// Exactly the runs the selected figures make, one canonical
		// RunSpec per line, wrapped as a JSON array for oovrd's /batch.
		jobs := experiments.Jobs(opt, figs)
		if len(jobs) == 0 {
			fail(fmt.Errorf("-dump-spec: the selected experiments run no RunSpecs"))
		}
		b, err := spec.EncodeArray(jobs)
		if err != nil {
			fail(err)
		}
		fmt.Print(string(b))
		return
	}
	for i, table := range tables {
		if want["ALL"] || want[ids[i]] {
			table()
		}
	}
	for _, e := range figs {
		if f := e.Run(opt); *csv {
			fmt.Print(f.CSV())
		} else {
			fmt.Println(f.Render())
		}
	}
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
}

// applyTemplate folds a stored RunSpec into the harness options: its
// hardware always applies; its frames/seed apply unless the matching flag
// was set explicitly; a named workload narrows the case list to that one
// benchmark at the spec's resolution.
func applyTemplate(opt *experiments.Options, path string) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	s, err := spec.Decode(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	n, err := s.Normalized()
	if err != nil {
		fail(err)
	}
	if err := spec.ValidateOptions(*n.Hardware); err != nil {
		fail(err)
	}
	// The harness has no per-run placement knob; refuse a template that
	// declares one rather than silently running every figure striped.
	if n.Placement != "striped" {
		fail(fmt.Errorf("-spec template placement %q is not supported by the harness (figures run striped)", n.Placement))
	}
	set := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	opt.System = n.Hardware
	// Only an explicit template value overrides the harness defaults: the
	// spec-normalized frame count (4) differs from the harness's own
	// default (6), so a template that never mentions frames must not
	// silently re-anchor every figure.
	if !set["frames"] && s.Frames != 0 {
		opt.Frames = s.Frames
	}
	if !set["seed"] && s.Seed != 0 {
		opt.Seed = s.Seed
	}
	if s.Workload.Name != "" || s.Workload.Inline != nil {
		// Only the workload matters here; the template's scheduler may
		// name a policy this binary never registered.
		c, err := n.ResolveWorkload()
		if err != nil {
			fail(err)
		}
		opt.Cases = []workload.Case{c}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func printTable1() {
	fmt.Println("Table 1 — Differences between PC gaming and stereo VR")
	fmt.Printf("%-16s %-16s %-36s %10s %12s\n", "platform", "display", "field of view", "Mpixels", "latency ms")
	for _, r := range workload.Table1() {
		fmt.Printf("%-16s %-16s %-36s %10.2f %6g-%g\n",
			r.Platform, r.Display, r.FieldOfView, r.MPixels, r.FrameLatencyMs[0], r.FrameLatencyMs[1])
	}
	fmt.Println()
}

func printTable2() {
	c := gpu.Table2Config()
	fmt.Println("Table 2 — Baseline configuration")
	rows := [][2]string{
		{"GPU frequency", fmt.Sprintf("%g GHz", c.ClockGHz)},
		{"Number of GPMs", fmt.Sprintf("%d", c.NumGPMs)},
		{"Number of SMs", fmt.Sprintf("%d, %d per GPM", c.NumGPMs*c.SMsPerGPM, c.SMsPerGPM)},
		{"SM configuration", fmt.Sprintf("%d shader cores, %d KB L1, %d TXU", c.ShaderCoresPerSM, c.L1KBPerSM, c.TextureUnitsPerSM)},
		{"Texture filtering", fmt.Sprintf("%dx anisotropic", c.AnisotropicFiltering)},
		{"Raster engine", fmt.Sprintf("%dx%d tiled rasterization", c.RasterTileSize, c.RasterTileSize)},
		{"Number of ROPs", fmt.Sprintf("%d, %d per GPM", c.NumGPMs*c.ROPsPerGPM, c.ROPsPerGPM)},
		{"L2 cache", fmt.Sprintf("%d MB total, %d-way", c.L2MBTotal, c.L2Ways)},
		{"Inter-GPU interconnect", fmt.Sprintf("%g GB/s NVLink unidirectional", c.InterGPMLinkGBs)},
		{"Local DRAM bandwidth", fmt.Sprintf("%g GB/s", c.LocalDRAMGBs)},
	}
	for _, r := range rows {
		fmt.Printf("%-26s %s\n", r[0], r[1])
	}
	fmt.Println()
}

func printTable3() {
	fmt.Println("Table 3 — Benchmarks")
	fmt.Printf("%-5s %-22s %-8s %-22s %7s\n", "abbr", "name", "library", "resolutions", "#draw")
	for _, b := range workload.Benchmarks() {
		var res []string
		for _, r := range b.Resolutions {
			res = append(res, fmt.Sprintf("%dx%d", r[0], r[1]))
		}
		fmt.Printf("%-5s %-22s %-8s %-22s %7d\n", b.Abbr, b.Name, b.Library, strings.Join(res, " "), b.Draws)
	}
	fmt.Println()
}

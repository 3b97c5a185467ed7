// Quickstart: generate a VR workload, render it with the baseline
// single-programming-model scheme and with OO-VR, and compare the two —
// the five-minute version of the paper's headline result.
package main

import (
	"fmt"

	"oovr"
)

func main() {
	// 1. Pick a workload. HL2 at 1280x1024 per eye is the paper's most
	//    cited configuration; four frames capture cold start and steady
	//    state.
	spec, ok := oovr.BenchmarkByAbbr("HL2")
	if !ok {
		panic("HL2 benchmark missing")
	}
	scene := spec.Generate(1280, 1024, 4, 1)
	fmt.Printf("workload: %s — %d draws/frame, %.1f MB of textures\n\n",
		scene.Name, len(scene.Frames[0].Objects), float64(scene.TotalTextureBytes())/1e6)

	// 2. Render with the baseline: the whole 4-GPM system acts as one big
	//    GPU, left/right views land on different GPM groups, every texture
	//    sample crosses the striped L2.
	base := oovr.Run(oovr.NewSystem(oovr.DefaultOptions(), scene), oovr.Baseline{})

	// 3. Render the same workload with OO-VR: TSL-batched objects, both
	//    eyes per batch via SMP, predictive batch distribution,
	//    pre-allocated data, distributed composition.
	scene2 := spec.Generate(1280, 1024, 4, 1) // fresh scene: systems own their placement state
	ovr := oovr.Run(oovr.NewSystem(oovr.DefaultOptions(), scene2), oovr.NewOOVR())

	// 4. Compare.
	fmt.Printf("%-22s %18s %18s\n", "", "Baseline", "OO-VR")
	fmt.Printf("%-22s %18.0f %18.0f\n", "cycles per frame", base.FPSCycles(), ovr.FPSCycles())
	fmt.Printf("%-22s %15.2f ms %15.2f ms\n", "frame latency @1GHz",
		base.AvgFrameLatency()/1e6, ovr.AvgFrameLatency()/1e6)
	fmt.Printf("%-22s %15.1f MB %15.1f MB\n", "inter-GPM traffic",
		base.InterGPMBytes/1e6, ovr.InterGPMBytes/1e6)
	fmt.Printf("%-22s %18.2f %18.2f\n", "GPM busy max/min",
		base.BestToWorstBusyRatio(), ovr.BestToWorstBusyRatio())
	fmt.Printf("\nOO-VR speedup: %.2fx, traffic saving: %.0f%%\n",
		base.AvgFrameLatency()/ovr.AvgFrameLatency(),
		100*(1-ovr.InterGPMBytes/base.InterGPMBytes))
}

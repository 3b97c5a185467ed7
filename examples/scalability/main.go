// Scalability: the paper's Figure 18 question through the public API —
// does performance keep growing as GPMs are added, or does the NUMA
// bottleneck flatten the curve? OO-VR's claim is near-linear scaling where
// the baseline saturates.
package main

import (
	"fmt"

	"oovr"
)

func main() {
	spec, _ := oovr.BenchmarkByAbbr("NFS")
	gpmCounts := []int{1, 2, 4, 8}
	schemes := []oovr.Planner{
		oovr.Baseline{},
		oovr.ObjectSFR{},
		oovr.NewOOVR(),
	}

	// Single-GPU reference: the same workload on one GPM.
	ref := func() float64 {
		opt := oovr.DefaultOptions()
		opt.Config = opt.Config.WithGPMs(1)
		scene := spec.Generate(1280, 1024, 4, 1)
		return oovr.Run(oovr.NewSystem(opt, scene), oovr.Baseline{}).FPSCycles()
	}()

	fmt.Println("NFS 1280x1024, speedup over a single GPU by GPM count")
	fmt.Printf("%-14s", "scheme")
	for _, n := range gpmCounts {
		fmt.Printf("%8d GPM", n)
	}
	fmt.Println()
	for _, s := range schemes {
		fmt.Printf("%-14s", s.Name())
		for _, n := range gpmCounts {
			opt := oovr.DefaultOptions()
			opt.Config = opt.Config.WithGPMs(n)
			scene := spec.Generate(1280, 1024, 4, 1)
			m := oovr.Run(oovr.NewSystem(opt, scene), s)
			fmt.Printf("%12.2f", ref/m.FPSCycles())
		}
		fmt.Println()
	}
	fmt.Println("\n(the paper's Figure 18: baseline 2.08x at 8 GPMs, object-level 3.47x, OO-VR 6.27x)")
}

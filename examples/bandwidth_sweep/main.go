// Bandwidth sweep: how sensitive is each rendering scheme to the inter-GPM
// link bandwidth? This reproduces the shape of the paper's Figure 17
// through the public API: the baseline collapses as links shrink while
// OO-VR, having converted remote accesses to local ones, barely moves.
//
// The sweep also shows the motivation experiment (Figure 4): even 256 GB/s
// links cannot make the single-programming-model baseline competitive.
package main

import (
	"fmt"

	"oovr"
)

func main() {
	spec, _ := oovr.BenchmarkByAbbr("UT3")
	bandwidths := []float64{32, 64, 128, 256, 1024}
	schemes := []oovr.Planner{
		oovr.Baseline{},
		oovr.ObjectSFR{},
		oovr.NewOOVR(),
	}

	fmt.Println("UT3 1280x1024, 4 GPMs, cycles per frame by link bandwidth")
	fmt.Printf("%-14s", "scheme")
	for _, bw := range bandwidths {
		fmt.Printf("%12.0fGB/s", bw)
	}
	fmt.Println()

	for _, s := range schemes {
		fmt.Printf("%-14s", s.Name())
		for _, bw := range bandwidths {
			opt := oovr.DefaultOptions()
			opt.Config = opt.Config.WithLinkGBs(bw)
			scene := spec.Generate(1280, 1024, 4, 1)
			m := oovr.Run(oovr.NewSystem(opt, scene), s)
			fmt.Printf("%16.0f", m.FPSCycles())
		}
		fmt.Println()
	}

	fmt.Println("\nsensitivity (cycles at 32 GB/s over cycles at 1 TB/s; 1.0 = link-insensitive):")
	for _, s := range schemes {
		run := func(bw float64) float64 {
			opt := oovr.DefaultOptions()
			opt.Config = opt.Config.WithLinkGBs(bw)
			return oovr.Run(oovr.NewSystem(opt, spec.Generate(1280, 1024, 4, 1)), s).FPSCycles()
		}
		fmt.Printf("  %-14s %.2f\n", s.Name(), run(32)/run(1024))
	}
}

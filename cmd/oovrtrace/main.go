// Command oovrtrace generates a synthetic benchmark trace and prints its
// statistics: draw counts, triangle/fragment distributions, texture pool
// and sharing structure, and the TSL batches the OO-VR middleware would
// form — the per-workload counterpart of the paper's Table 3.
//
// Usage:
//
//	oovrtrace [-bench DM3-1280] [-frames 1] [-seed 1] [-batches]
//	          [-export trace.json] [-import trace.json]
//
// -export writes the generated scene as a versioned JSON trace; -import
// analyzes a user-supplied trace instead of generating one, so profiled
// traces from real applications can drive the simulator.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"oovr/internal/core"
	"oovr/internal/scene"
	"oovr/internal/workload"
)

func main() {
	bench := flag.String("bench", "DM3-1280", "benchmark case name")
	frames := flag.Int("frames", 1, "frames to generate")
	seed := flag.Int64("seed", 1, "synthesis seed")
	batches := flag.Bool("batches", false, "also print the OO middleware's TSL batches")
	exportPath := flag.String("export", "", "write the scene as a JSON trace to this path")
	importPath := flag.String("import", "", "analyze a JSON trace instead of generating one")
	flag.Parse()

	var sc *scene.Scene
	if *importPath != "" {
		f, err := os.Open(*importPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sc, err = scene.Decode(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s (imported), %dx%d per eye, %d frame(s)\n", sc.Name, sc.Width, sc.Height, len(sc.Frames))
		fmt.Printf("texture pool: %d textures, %.1f MB total\n",
			len(sc.Textures), float64(sc.TotalTextureBytes())/1e6)
	} else {
		c, ok := workload.CaseByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
			os.Exit(2)
		}
		sc = c.Spec.Generate(c.Width, c.Height, *frames, *seed)
		fmt.Printf("%s — %s (%s), %dx%d per eye, %d frame(s)\n",
			c.Name, c.Spec.Name, c.Spec.Library, sc.Width, sc.Height, len(sc.Frames))
		fmt.Printf("texture pool: %d textures, %.1f MB total (%d shared + %d private)\n",
			len(sc.Textures), float64(sc.TotalTextureBytes())/1e6, c.Spec.TextureCount, c.Spec.Draws)
	}

	if *exportPath != "" {
		f, err := os.Create(*exportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sc.Encode(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("exported trace to %s\n", *exportPath)
	}

	if err := summarize(os.Stdout, sc, *batches); err != nil {
		fmt.Fprintln(os.Stderr, "oovrtrace:", err)
		os.Exit(1)
	}
}

// summarize prints frame 0's statistics and TSL batching. A trace with no
// frames, or an empty frame 0, has nothing to summarize: an error.
func summarize(w io.Writer, sc *scene.Scene, batches bool) error {
	if len(sc.Frames) == 0 || len(sc.Frames[0].Objects) == 0 {
		return fmt.Errorf("%s: frame 0 has no objects", sc.Name)
	}
	f := &sc.Frames[0]
	var tris []int
	var frags []float64
	totalTris, totalFrags := 0, 0.0
	for i := range f.Objects {
		tris = append(tris, f.Objects[i].Triangles)
		frags = append(frags, f.Objects[i].FragsPerView)
		totalTris += f.Objects[i].Triangles
		totalFrags += f.Objects[i].FragsPerView
	}
	sort.Ints(tris)
	sort.Float64s(frags)
	fmt.Fprintf(w, "draws/frame:  %d\n", len(f.Objects))
	fmt.Fprintf(w, "triangles:    total %d, median %d, p95 %d, max %d\n",
		totalTris, tris[len(tris)/2], tris[len(tris)*95/100], tris[len(tris)-1])
	fmt.Fprintf(w, "fragments:    total %.2fM per view (overdraw %.2f), median %.0f, max %.0f\n",
		totalFrags/1e6, totalFrags/float64(sc.PixelsPerView()),
		frags[len(frags)/2], frags[len(frags)-1])

	st := f.Sharing()
	fmt.Fprintf(w, "sharing:      %d textures referenced, %d shared by >1 object, avg %.2f sharers, max %d\n",
		st.UniqueTextures, st.SharedTextures, st.AvgSharers(), st.MaxSharers)

	deps := 0
	for i := range f.Objects {
		if f.Objects[i].DependsOn >= 0 {
			deps++
		}
	}
	fmt.Fprintf(w, "dependencies: %d objects (%.1f%%) depend on their predecessor\n",
		deps, 100*float64(deps)/float64(len(f.Objects)))

	mw := core.NewMiddleware()
	bs := mw.GroupFrame(sc, f)
	fmt.Fprintf(w, "TSL batching: %d objects -> %d batches (threshold %.2f, cap %d triangles)\n",
		len(f.Objects), len(bs), mw.TSLThreshold, mw.TriangleCap)

	if batches {
		fmt.Fprintln(w)
		for _, b := range bs {
			fmt.Fprintf(w, "batch %3d: %3d objects, %6d triangles, %7.0f frags, %2d textures\n",
				b.ID, len(b.Objects), b.Triangles, b.FragsBothViews(), len(b.Textures))
		}
	}
	return nil
}

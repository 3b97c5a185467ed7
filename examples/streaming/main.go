// Streaming: render a scene incrementally through the frame-driver Session
// API and verify the result is identical to batch mode.
//
// A production serving system never holds a whole scene in memory: frames
// arrive from live sessions (or head-motion traces) one at a time. The
// workload generator exposes exactly that shape — Stream yields a bindable
// scene *header* (textures + declared capacity, no frames) and then frames
// on demand — and driver sessions consume it:
//
//	st  := spec.Stream(w, h, frames, seed)
//	sys := oovr.NewSystem(opt, st.Header())
//	ses := oovr.Open(sys, oovr.NewOOVR())
//	for f, ok := st.Next(); ok; f, ok = st.Next() { ses.SubmitFrame(f) }
//	m := ses.Close()
//
// The demo also drives a second stream through the Motion hook — a
// synthetic head-motion pan instead of the generator's random camera walk —
// the on-ramp for profiled HMD traces.
package main

import (
	"fmt"
	"math"
	"os"
	"reflect"

	"oovr"
)

func main() {
	spec, _ := oovr.BenchmarkByAbbr("HL2")
	const frames = 6

	// Batch mode: materialize every frame up front.
	scene := spec.Generate(1280, 1024, frames, 1)
	batch := oovr.Run(oovr.NewSystem(oovr.DefaultOptions(), scene), oovr.NewOOVR())

	// Streaming mode: bind the header, then feed frames one at a time.
	st := spec.Stream(1280, 1024, frames, 1)
	ses := oovr.Open(oovr.NewSystem(oovr.DefaultOptions(), st.Header()), oovr.NewOOVR())
	for {
		f, ok := st.Next()
		if !ok {
			break
		}
		end := ses.SubmitFrame(f)
		fmt.Printf("frame %d submitted, pipeline time %10.0f cycles\n", f.Index, float64(end))
	}
	streamed := ses.Close()

	fmt.Printf("\nbatch:    %12.0f cycles, %8.1f MB inter-GPM\n", batch.TotalCycles, batch.InterGPMBytes/1e6)
	fmt.Printf("streamed: %12.0f cycles, %8.1f MB inter-GPM\n", streamed.TotalCycles, streamed.InterGPMBytes/1e6)
	if !reflect.DeepEqual(batch, streamed) {
		fmt.Fprintln(os.Stderr, "ERROR: streamed metrics diverged from batch mode")
		os.Exit(1)
	}
	fmt.Println("streamed metrics are byte-identical to batch mode ✓")

	// Head-motion trace: a smooth sinusoidal pan replaces the random walk.
	mt := spec.Stream(1280, 1024, frames, 1)
	mt.Motion = func(fi int) (dx, dy float64) {
		return 24 * math.Sin(float64(fi)/3), 6 * math.Cos(float64(fi)/5)
	}
	mses := oovr.Open(oovr.NewSystem(oovr.DefaultOptions(), mt.Header()), oovr.NewOOVR())
	for {
		f, ok := mt.Next()
		if !ok {
			break
		}
		mses.SubmitFrame(f)
	}
	motion := mses.Close()
	fmt.Printf("\nhead-motion trace: %12.0f cycles, %8.1f MB inter-GPM (panning shifts tile/object overlap)\n",
		motion.TotalCycles, motion.InterGPMBytes/1e6)
}

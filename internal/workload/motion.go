package workload

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"

	"oovr/internal/registry"
)

// Trace is a recorded head-motion pan sequence: per-frame camera deltas in
// screen pixels, one row per 90 Hz frame. Streams replay it through
// Replay, which plugs into Stream.Motion — the head pose then comes
// from a real recording instead of the generator's synthetic random walk,
// so temporal coherence between consecutive frames matches what an HMD
// actually produces.
type Trace struct {
	Name   string
	DX, DY []float64
}

// Len returns the number of recorded frames.
func (t Trace) Len() int { return len(t.DX) }

// Replay returns a Stream.Motion hook that replays the trace. Frame 0 never
// pans (the stream's base frame), so frame i draws row (i-1); streams longer
// than the recording loop it, which keeps unbounded serving sessions fed.
// The hook is pure — the same frame index always yields the same pan — so a
// stream re-opened with the same seed and the same trace reproduces its
// frames byte-identically (pinned by TestReplayMotionDeterministic).
func (t Trace) Replay() func(fi int) (dx, dy float64) {
	n := len(t.DX)
	if n == 0 {
		return func(int) (float64, float64) { return 0, 0 }
	}
	return func(fi int) (float64, float64) {
		i := (fi - 1) % n
		if i < 0 {
			i = 0
		}
		return t.DX[i], t.DY[i]
	}
}

// ParseTrace reads a pan trace from CSV text: a "dx,dy" header, one
// "dx,dy" float row per frame, '#' comment lines ignored.
func ParseTrace(name, text string) (Trace, error) {
	t := Trace{Name: name}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || line == "dx,dy" {
			continue
		}
		cols := strings.Split(line, ",")
		if len(cols) != 2 {
			return Trace{}, fmt.Errorf("workload: trace %s line %d: want dx,dy, got %q", name, ln+1, line)
		}
		dx, err := strconv.ParseFloat(cols[0], 64)
		if err != nil {
			return Trace{}, fmt.Errorf("workload: trace %s line %d: %w", name, ln+1, err)
		}
		dy, err := strconv.ParseFloat(cols[1], 64)
		if err != nil {
			return Trace{}, fmt.Errorf("workload: trace %s line %d: %w", name, ln+1, err)
		}
		t.DX = append(t.DX, dx)
		t.DY = append(t.DY, dy)
	}
	if t.Len() == 0 {
		return Trace{}, fmt.Errorf("workload: trace %s has no frames", name)
	}
	return t, nil
}

//go:embed traces/hmd_pan.csv
var hmdPanCSV string

// HMDPan is the name of the built-in recorded trace: a seated look-around
// gesture (slow sweep right, hold, faster return, natural vertical bob)
// captured at 90 Hz.
const HMDPan = "hmd-pan"

// traces is the head-motion trace name table (exact-match names).
var traces = registry.New[Trace]("workload", "trace", false)

// RegisterTrace adds a named head-motion trace; registering a taken name
// panics. The built-in HMDPan trace registers at init.
func RegisterTrace(t Trace) {
	if t.Len() == 0 {
		panic("workload: trace " + t.Name + " has no frames")
	}
	traces.Register(t.Name, t)
}

// TraceByName resolves a registered head-motion trace.
func TraceByName(name string) (Trace, bool) { return traces.Lookup(name) }

// TraceNames returns the sorted names of all registered traces.
func TraceNames() []string { return traces.Names() }

func init() {
	t, err := ParseTrace(HMDPan, hmdPanCSV)
	if err != nil {
		panic(err)
	}
	RegisterTrace(t)
}

package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/obs"
	"oovr/internal/render"
	"oovr/internal/scene"
	"oovr/internal/workload"
)

// allPlanners returns the seven evaluated schemes in the figures' order.
func allPlanners() []driver.Planner {
	return []driver.Planner{
		render.Baseline{},
		render.DefaultAFR(),
		render.TileV{},
		render.TileH{},
		render.ObjectSFR{},
		core.NewOOApp(),
		core.NewOOVR(),
	}
}

// metricsFingerprint folds every pre-topology field of a Metrics —
// including the raw float64 bits of each latency and busy counter — into a
// short digest, so "byte-identical Metrics" is a string comparison. The
// Links field (added with the topology subsystem) is deliberately
// excluded: the golden digests below were captured before it existed and
// must stay comparable; linksFingerprint pins the per-link data
// separately.
func metricsFingerprint(m multigpu.Metrics) string {
	h := sha256.New()
	w := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "%s|%s|%d|", m.Scheme, m.Workload, m.Frames)
	w(m.TotalCycles)
	w(m.InterGPMBytes)
	w(m.LocalDRAMBytes)
	w(m.RemoteTextureBytes)
	w(m.RemoteCompositionBytes)
	w(m.RemoteDepthBytes)
	w(m.RemoteCommandBytes)
	w(m.RemoteVertexBytes)
	for _, l := range m.FrameLatencies {
		w(l)
	}
	for _, b := range m.GPMBusyCycles {
		w(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// goldenFingerprints pins the pre-refactor behaviour: these digests were
// captured from the monolithic Scheduler.Render implementations (after the
// MaxBatchQueue occupancy fix) immediately before the execution model was
// refactored onto driver.FrameLoop/Planner. Every scheme must keep
// reproducing them byte-for-byte — on the default 4-GPM Table 2 system,
// 4 frames, seed 1 — through any future execution-core change.
var goldenFingerprints = map[string]map[string]string{
	"DM3-640": {
		"Baseline":       "416787865531dfbf",
		"Frame-Level":    "f5fe9fd882e3d905",
		"Tile-Level (V)": "73ea988243e7186d",
		"Tile-Level (H)": "a92d774369498403",
		"Object-Level":   "884bf8813213da44",
		"OO_APP":         "23cb8bb25b0efbdb",
		"OOVR":           "025b04d641e82c83",
	},
	"HL2-1280": {
		"Baseline":       "bc83a4be273d9c52",
		"Frame-Level":    "59b7b83a740d3974",
		"Tile-Level (V)": "bf63d67c026d94ce",
		"Tile-Level (H)": "f3e32b60d0085573",
		"Object-Level":   "595bf2cd2d28d918",
		"OO_APP":         "3f77a1616412ab7d",
		"OOVR":           "d6b16f334dc00af0",
	},
}

// TestGoldenCrossArchitectureEquivalence asserts byte-identical Metrics
// between the pre-refactor golden values and the new driver path, for all
// seven schedulers, through both entry points: driver.Run (batch) and a streaming
// driver.Session fed frame by frame, in fresh frames and in one reused frame.
func TestGoldenCrossArchitectureEquivalence(t *testing.T) {
	for cname, want := range goldenFingerprints {
		c, ok := workload.CaseByName(cname)
		if !ok {
			t.Fatalf("missing benchmark case %s", cname)
		}
		for _, p := range allPlanners() {
			// Batch path: driver.Run over the materialized scene.
			sc := c.Spec.Generate(c.Width, c.Height, 4, 1)
			batch := driver.Run(multigpu.New(multigpu.DefaultOptions(), sc), p)
			if got := metricsFingerprint(batch); got != want[p.Name()] {
				t.Errorf("%s/%s batch: fingerprint %s, golden %s (metrics drifted from the pre-refactor implementation)",
					cname, p.Name(), got, want[p.Name()])
			}
			// Streaming path: bind the scene header, submit frames one at
			// a time.
			st := c.Spec.Stream(c.Width, c.Height, 4, 1)
			ses := driver.Open(multigpu.New(multigpu.DefaultOptions(), st.Header()), p)
			for {
				f, ok := st.Next()
				if !ok {
					break
				}
				ses.SubmitFrame(f)
			}
			streamed := ses.Close()
			if got := metricsFingerprint(streamed); got != want[p.Name()] {
				t.Errorf("%s/%s streamed: fingerprint %s, golden %s",
					cname, p.Name(), got, want[p.Name()])
			}
			if !reflect.DeepEqual(batch, streamed) {
				t.Errorf("%s/%s: streamed metrics diverged from batch", cname, p.Name())
			}
			if reused := runReusedFrame(multigpu.DefaultOptions(), c, p); !reflect.DeepEqual(batch, reused) {
				t.Errorf("%s/%s: reused-frame metrics diverged from batch", cname, p.Name())
			}
		}
	}
}

// runReusedFrame renders the case's 4-frame, seed-1 stream through a
// driver.Session that is fed every frame in one reused buffer (NextInto), the
// way spec.Run.Execute and the serving cell stream. It matches the batch run
// only if no planner keeps pointers into one frame's objects across frames.
func runReusedFrame(opt multigpu.Options, c workload.Case, p driver.Planner) multigpu.Metrics {
	st := c.Spec.Stream(c.Width, c.Height, 4, 1)
	ses := driver.Open(multigpu.New(opt, st.Header()), p)
	var f scene.Frame
	for st.NextInto(&f) {
		ses.SubmitFrame(&f)
	}
	return ses.Close()
}

// TestTimelineBatchMatchesSession pins the x-ray reference run's trace
// through both entry points: HL2-1280 under OO-VR on a ring, recorded
// through driver.Run and through a driver.Session fed frame by frame, must
// both encode to the fingerprint the timeline smoke check pins in
// scripts/timeline_golden.txt (which oovrsim -timeline records in batch).
func TestTimelineBatchMatchesSession(t *testing.T) {
	golden, err := os.ReadFile("../../scripts/timeline_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(golden))
	c, ok := workload.CaseByName("HL2-1280")
	if !ok {
		t.Fatal("missing benchmark case HL2-1280")
	}
	opt := multigpu.DefaultOptions()
	opt.Config = opt.Config.WithTopology("ring")

	batchTL := obs.NewTimeline()
	sys := multigpu.New(opt, c.Spec.Generate(c.Width, c.Height, 4, 1))
	sys.AttachTimeline(batchTL)
	driver.Run(sys, core.NewOOVR())

	sessionTL := obs.NewTimeline()
	st := c.Spec.Stream(c.Width, c.Height, 4, 1)
	sys = multigpu.New(opt, st.Header())
	sys.AttachTimeline(sessionTL)
	ses := driver.Open(sys, core.NewOOVR())
	for {
		f, ok := st.Next()
		if !ok {
			break
		}
		ses.SubmitFrame(f)
	}
	ses.Close()

	if d := batchTL.Dropped(); d != 0 {
		t.Fatalf("reference run overflowed the ring (%d dropped); the golden would be unstable", d)
	}
	if got := batchTL.Fingerprint(); got != want {
		t.Errorf("batch timeline fingerprint %s, golden %s", got, want)
	}
	if got := sessionTL.Fingerprint(); got != want {
		t.Errorf("session timeline fingerprint %s, golden %s", got, want)
	}
}

// topologyGoldenFingerprints pin the routed interconnect topologies the
// same way goldenFingerprints pin the paper's full mesh: HL2-1280 on the
// otherwise-default 4-GPM Table 2 system, 4 frames, seed 1, with only
// Config.Topology changed. Captured when internal/topo landed; any change
// to the routing rules (shortest path, lowest-next-hop tie break), the
// store-and-forward reservation order, or the default topology parameters
// shows up as a drifted digest — here when it moves the timing or traffic
// totals, in goldenLinkFingerprints when it only redistributes bytes or
// queueing across physical links. Frame-Level (AFR) deliberately shares
// the fullmesh digest across all three: it renders from private per-GPM
// copies and moves no link bytes, so the topology must not affect it.
var topologyGoldenFingerprints = map[string]map[string]string{
	"ring": {
		"Baseline":       "0a4c857fbb06c17f",
		"Frame-Level":    "59b7b83a740d3974",
		"Tile-Level (V)": "a807b389f24a6ed7",
		"Tile-Level (H)": "9149d8f53e101e8f",
		"Object-Level":   "ad533d9538529ab0",
		"OO_APP":         "dadf8548c94cf129",
		"OOVR":           "b4e49cdff55cd12c",
	},
	"switch": {
		"Baseline":       "43bf02680170e2d4",
		"Frame-Level":    "59b7b83a740d3974",
		"Tile-Level (V)": "38da1400e65a419c",
		"Tile-Level (H)": "22c95e22d51f6505",
		"Object-Level":   "87d7140309c73783",
		"OO_APP":         "aa1cc080f22ea456",
		"OOVR":           "6841251a7faa314c",
	},
	"hierarchical": {
		"Baseline":       "120c3dfe90eb6ea8",
		"Frame-Level":    "59b7b83a740d3974",
		"Tile-Level (V)": "43d5dd30928ae333",
		"Tile-Level (H)": "e8c6d707e7fd152a",
		"Object-Level":   "474e0457710cbbb7",
		"OO_APP":         "7f7459d6026b3167",
		"OOVR":           "a0c80c13285f5c0b",
	},
}

// TestGoldenTopologyFingerprints pins every scheduler's Metrics on the
// routed topologies, through both execution paths (batch and a streaming
// session, fed fresh frames and one reused frame) — the topology counterpart of the fullmesh golden test above.
func TestGoldenTopologyFingerprints(t *testing.T) {
	c, ok := workload.CaseByName("HL2-1280")
	if !ok {
		t.Fatal("missing benchmark case HL2-1280")
	}
	for topoName, want := range topologyGoldenFingerprints {
		opt := multigpu.DefaultOptions()
		opt.Config = opt.Config.WithTopology(topoName)
		for _, p := range allPlanners() {
			sc := c.Spec.Generate(c.Width, c.Height, 4, 1)
			batch := driver.Run(multigpu.New(opt, sc), p)
			if got := metricsFingerprint(batch); got != want[p.Name()] {
				t.Errorf("%s/%s batch: fingerprint %s, golden %s (topology timing drifted)",
					topoName, p.Name(), got, want[p.Name()])
			}
			st := c.Spec.Stream(c.Width, c.Height, 4, 1)
			ses := driver.Open(multigpu.New(opt, st.Header()), p)
			for {
				f, ok := st.Next()
				if !ok {
					break
				}
				ses.SubmitFrame(f)
			}
			streamed := ses.Close()
			if !reflect.DeepEqual(batch, streamed) {
				t.Errorf("%s/%s: streamed metrics diverged from batch", topoName, p.Name())
			}
			if reused := runReusedFrame(opt, c, p); !reflect.DeepEqual(batch, reused) {
				t.Errorf("%s/%s: reused-frame metrics diverged from batch", topoName, p.Name())
			}
		}
	}
}

// linksFingerprint folds the per-link interconnect metrics — the data
// metricsFingerprint predates and excludes — into a short digest.
func linksFingerprint(m multigpu.Metrics) string {
	h := sha256.New()
	w := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, l := range m.Links {
		fmt.Fprintf(h, "%s|", l.Name)
		w(l.Bytes)
		w(l.BusyCycles)
		w(l.Utilization)
		w(l.PeakQueueDelay)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// goldenLinkFingerprints pin the per-physical-link metrics (bytes, busy
// cycles, utilization, peak queueing delay, in sorted-name order) for a
// representative scheduler pair on every topology family — HL2-1280,
// 4 frames, seed 1, like the digests above. A regression confined to
// hop-level accounting or queue-delay tracking leaves the timing digests
// untouched and surfaces only here.
var goldenLinkFingerprints = map[string]map[string]string{
	"fullmesh":     {"Baseline": "2a59a95956689030", "OOVR": "f73eb6f8d39e59e1"},
	"ring":         {"Baseline": "23d676d3b8541e3f", "OOVR": "793564658e9e2d6b"},
	"switch":       {"Baseline": "79f4921b33dba8e8", "OOVR": "918957c02d6a1e76"},
	"hierarchical": {"Baseline": "d141a8a33991276a", "OOVR": "4c3a862462e620c8"},
	"mesh2d":       {"Baseline": "cac4c357ce01b94d", "OOVR": "5af847b818ebd71a"},
	"chain":        {"Baseline": "0fa6af63f3aff190", "OOVR": "4bd60e855a403a74"},
}

// TestGoldenLinkFingerprints pins the per-link metrics digests.
func TestGoldenLinkFingerprints(t *testing.T) {
	c, ok := workload.CaseByName("HL2-1280")
	if !ok {
		t.Fatal("missing benchmark case HL2-1280")
	}
	planners := map[string]driver.Planner{
		"Baseline": render.Baseline{},
		"OOVR":     core.NewOOVR(),
	}
	for topoName, want := range goldenLinkFingerprints {
		opt := multigpu.DefaultOptions()
		opt.Config = opt.Config.WithTopology(topoName)
		for pname, p := range planners {
			sc := c.Spec.Generate(c.Width, c.Height, 4, 1)
			m := driver.Run(multigpu.New(opt, sc), p)
			if got := linksFingerprint(m); got != want[pname] {
				t.Errorf("%s/%s: link fingerprint %s, golden %s (per-link accounting drifted)",
					topoName, pname, got, want[pname])
			}
		}
	}
}

// TestGoldenSchedulerDeterminism pins the simulator's determinism
// guarantee: rendering the same case with the same seed twice must produce
// byte-identical Metrics for every scheduler. Go randomizes map iteration
// per range statement, so a double run inside one process catches any
// map-order dependence (the seed had one in the ShipTextures reservation
// order and one in the TSL texture-map summation).
func TestGoldenSchedulerDeterminism(t *testing.T) {
	c, ok := workload.CaseByName("HL2-1280")
	if !ok {
		t.Fatal("missing benchmark case")
	}
	o := Options{Frames: 4, Seed: 1, Cases: []workload.Case{c}}
	for _, s := range ComparisonSchedulers() {
		a := o.perCase(s, nil, multigpu.DefaultOptions())[0]
		b := o.perCase(s, nil, multigpu.DefaultOptions())[0]
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two identical runs diverged:\n  %+v\nvs\n  %+v", s, a, b)
		}
	}
}

// TestParallelMatchesSerial is the harness half of the determinism
// guarantee: a Parallel > 1 run of every RunSpec figure must be
// byte-identical to the serial run. FS (whose serving sweep
// TestServiceSerialParallelIdentical covers) and O1 (which simulates
// nothing) are skipped.
func TestParallelMatchesSerial(t *testing.T) {
	c1, _ := workload.CaseByName("DM3-640")
	c2, _ := workload.CaseByName("HL2-1280")
	serial := Options{Frames: 1, Seed: 1, Cases: []workload.Case{c1, c2}}
	parallel := serial
	parallel.Parallel = 4
	for _, e := range Experiments() {
		if e.ID == "FS" || e.ID == "O1" {
			continue
		}
		want := e.Run(serial)
		got := e.Run(parallel)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parallel run diverged from serial:\n  %+v\nvs\n  %+v", e.ID, got, want)
		}
	}
}

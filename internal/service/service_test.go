package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/obs"
	"oovr/internal/render"
	"oovr/internal/spec"
	"oovr/internal/topo"
)

func sha256sum(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:]
}

// smallSpec is the cheap 3-node λ-swept spec the determinism tests share:
// DM3-640 sessions, short horizon, short sessions.
func smallSpec() spec.ServiceSpec {
	return spec.ServiceSpec{
		ServiceVersion: 1,
		Nodes:          []spec.NodeGroup{{Count: 3}},
		Sessions:       []spec.SessionMix{{Workload: "DM3-640"}},
		LambdaSweep:    []float64{4, 16},
		MeanFrames:     6,
		HorizonMs:      400,
		Seed:           7,
	}
}

// TestServiceSerialParallelIdentical pins the tentpole's determinism claim:
// the same sweep produces byte-identical canonical Reports run serially,
// run with parallel cells, and assembled with NewReport from cells run one
// by one (the in-process stand-in for fleet sharding) with a Timeline
// recording each cell's session lanes.
func TestServiceSerialParallelIdentical(t *testing.T) {
	sp := smallSpec()
	serial, err := Run(sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(sp, RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := CellSpecs(sp)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]CellReport, len(cells))
	for i, cell := range cells {
		// A fleet worker sees only the standalone cell spec; re-encode it
		// through its wire form to prove nothing leaks from the sweep.
		b, err := cell.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		job, err := spec.DecodeJobBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		cs, ok := job.(spec.ServiceSpec)
		if !ok {
			t.Fatalf("cell %d did not decode as a service job", i)
		}
		// Record the session lanes on this path: observation must not
		// move a byte of the Report.
		c, err := OpenCell(cs)
		if err != nil {
			t.Fatal(err)
		}
		tl := obs.NewTimeline()
		c.AttachTimeline(tl)
		for c.Step() {
		}
		if len(tl.Events()) == 0 {
			t.Errorf("cell %d recorded no session events", i)
		}
		reports[i] = c.Report()
	}
	sharded, err := NewReport(sp, reports)
	if err != nil {
		t.Fatal(err)
	}

	bSerial, err := serial.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bParallel, _ := parallel.Encode()
	bSharded, _ := sharded.Encode()
	if string(bSerial) != string(bParallel) {
		t.Errorf("serial != parallel:\n%s\n%s", bSerial, bParallel)
	}
	if string(bSerial) != string(bSharded) {
		t.Errorf("serial != cell-sharded:\n%s\n%s", bSerial, bSharded)
	}
}

// TestServiceGoldenFingerprint pins the small sweep's canonical report
// digest: any change to the arrival process, the routing, the queueing
// model or the report encoding shows up here. Refresh deliberately.
func TestServiceGoldenFingerprint(t *testing.T) {
	rep, err := Run(smallSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := fmt.Sprintf("%x", sha256sum(b))
	const want = "a9ce00c20c6b5edd547a8b34219bc8728c76714b684806894b3f10c7b5ee76c5"
	if sum != want {
		t.Errorf("service report fingerprint changed:\n  got  %s\n  want %s", sum, want)
	}
}

// plannerBuilds counts the "counting-baseline" factory's calls.
var plannerBuilds atomic.Int64

func init() {
	spec.RegisterPlanner("counting-baseline", func(json.RawMessage) (driver.Planner, error) {
		plannerBuilds.Add(1)
		return render.Baseline{}, nil
	})
}

// TestCellBuildsOnePlanner pins that a cell resolves its spec once: every
// admitted session opens with the planner OpenCell built, so one RunCell
// calls the factory once however many sessions it admits.
func TestCellBuildsOnePlanner(t *testing.T) {
	plannerBuilds.Store(0)
	rep, err := RunCell(spec.ServiceSpec{
		ServiceVersion: 1,
		Nodes:          []spec.NodeGroup{{Count: 1}},
		Scheduler:      spec.SchedulerRef{Name: "counting-baseline"},
		Sessions:       []spec.SessionMix{{Workload: "DM3-640"}},
		Lambda:         40,
		MeanFrames:     2,
		HorizonMs:      300,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted < 2 {
		t.Fatalf("cell admitted %d sessions, want several", rep.Admitted)
	}
	if got := plannerBuilds.Load(); got != 1 {
		t.Errorf("RunCell admitting %d sessions built the planner %d times, want 1", rep.Admitted, got)
	}
}

// topoBuilds counts the "counting-ring" topology's builds.
var topoBuilds atomic.Int64

func init() {
	topo.Register("counting-ring", func(gb *topo.GraphBuilder, p topo.Params) error {
		topoBuilds.Add(1)
		for i := 0; i < p.NumGPMs; i++ {
			j := (i + 1) % p.NumGPMs
			gb.AddLink(fmt.Sprintf("link%d->%d", i, j), i, j, p.LinkGBs)
			gb.AddLink(fmt.Sprintf("link%d->%d", j, i), j, i, p.LinkGBs)
		}
		return nil
	})
}

// TestEachTopologyIsBuiltOnce pins that a resolved spec builds each
// interconnect once: a RunSpec's in Resolve, shared by the system Execute
// opens; a cell's once per node group in OpenCell, where routing weighs
// the graph's mean hops and every admitted session's system shares it.
func TestEachTopologyIsBuiltOnce(t *testing.T) {
	hw := func(gpms int) *multigpu.Options {
		o := multigpu.DefaultOptions()
		o.Config = o.Config.WithGPMs(gpms).WithTopology("counting-ring")
		return &o
	}
	topoBuilds.Store(0)
	m, err := spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "oovr"},
		Hardware:  hw(4),
		Frames:    2,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Links) != 8 {
		t.Fatalf("run reports %d links, want the 4-GPM ring's 8", len(m.Links))
	}
	if got := topoBuilds.Load(); got != 1 {
		t.Errorf("resolving and running one RunSpec built %d topologies, want 1", got)
	}

	topoBuilds.Store(0)
	rep, err := RunCell(spec.ServiceSpec{
		ServiceVersion: 1,
		Nodes:          []spec.NodeGroup{{Count: 2, Hardware: hw(4)}, {Count: 1, Hardware: hw(8)}},
		Sessions:       []spec.SessionMix{{Workload: "DM3-640"}},
		Lambda:         40,
		MeanFrames:     2,
		HorizonMs:      300,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted < 3 {
		t.Fatalf("cell admitted %d sessions, want several", rep.Admitted)
	}
	if got := topoBuilds.Load(); got != 2 {
		t.Errorf("RunCell admitting %d sessions on 2 node groups built %d topologies, want 2", rep.Admitted, got)
	}
}

// TestServiceConservation is the property test: over a spread of seeds and
// rates, rejected + completed + dropped sessions always sum to arrivals
// once the cell drains, and every admitted session is accounted for.
func TestServiceConservation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, lam := range []float64{2, 8, 40} {
			sp := spec.ServiceSpec{
				ServiceVersion:     1,
				Nodes:              []spec.NodeGroup{{Count: 2}},
				Sessions:           []spec.SessionMix{{Workload: "DM3-640"}},
				LambdaSweep:        []float64{lam},
				MeanFrames:         5,
				HorizonMs:          300,
				MaxSessionsPerNode: 4,
				Seed:               seed,
			}
			rep, err := RunCell(sp)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Rejected + rep.Completed + rep.DroppedSessions; got != rep.Arrivals {
				t.Errorf("seed %d λ=%g: rejected %d + completed %d + dropped %d = %d, want arrivals %d",
					seed, lam, rep.Rejected, rep.Completed, rep.DroppedSessions, got, rep.Arrivals)
			}
			if rep.Admitted != rep.Completed+rep.DroppedSessions {
				t.Errorf("seed %d λ=%g: admitted %d != completed %d + dropped %d",
					seed, lam, rep.Admitted, rep.Completed, rep.DroppedSessions)
			}
			if rep.Admitted+rep.Rejected != rep.Arrivals {
				t.Errorf("seed %d λ=%g: admitted %d + rejected %d != arrivals %d",
					seed, lam, rep.Admitted, rep.Rejected, rep.Arrivals)
			}
		}
	}
}

// TestServiceZeroLambda pins that λ=0 yields an empty report: no arrivals,
// no frames, zeroed percentiles.
func TestServiceZeroLambda(t *testing.T) {
	sp := smallSpec()
	sp.LambdaSweep = []float64{0}
	rep, err := Run(sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.Arrivals != 0 || c.Frames != 0 || c.P99Ms != 0 || c.PeakSessions != 0 {
		t.Errorf("λ=0 cell not empty: %+v", c)
	}
	if !c.SLOMet {
		t.Error("an empty cell trivially meets the SLO")
	}
}

// TestCellSpecsCrossProduct pins the sweep expansion: node counts outer,
// rates inner, every cell standalone and single-cell.
func TestCellSpecsCrossProduct(t *testing.T) {
	sp := smallSpec()
	sp.NodeSweep = []int{1, 2, 4}
	cells, err := CellSpecs(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("want 3x2=6 cells, got %d", len(cells))
	}
	wantNodes := []int{1, 1, 2, 2, 4, 4}
	wantLam := []float64{4, 16, 4, 16, 4, 16}
	for i, c := range cells {
		if len(c.NodeSweep) != 0 || len(c.LambdaSweep) != 1 {
			t.Errorf("cell %d is not single-cell: %+v", i, c)
		}
		if c.Nodes[0].Count != wantNodes[i] || c.LambdaSweep[0] != wantLam[i] {
			t.Errorf("cell %d: %d nodes λ=%g, want %d λ=%g",
				i, c.Nodes[0].Count, c.LambdaSweep[0], wantNodes[i], wantLam[i])
		}
	}
}

// TestRouters exercises the three builtin policies on a synthetic view.
func TestRouters(t *testing.T) {
	views := []NodeView{
		{ID: 0, Active: 3, Capacity: 4, FabricCost: 1},
		{ID: 1, Active: 1, Capacity: 4, FabricCost: 1},
		{ID: 2, Active: 2, Capacity: 4, FabricCost: 3},
	}
	rr, _ := NewRouter("round-robin", nil)
	if got := rr.Route(5, views); got != 2 {
		t.Errorf("round-robin(5) = %d, want 2", got)
	}
	ll, _ := NewRouter("least-loaded", nil)
	if got := ll.Route(0, views); got != 1 {
		t.Errorf("least-loaded = %d, want 1", got)
	}
	ta, _ := NewRouter("topology-aware", nil)
	// scores: node0 4*1=4, node1 2*1=2, node2 3*3=9
	if got := ta.Route(0, views); got != 1 {
		t.Errorf("topology-aware = %d, want 1", got)
	}
	views[1].Active = 4 // full
	// scores: node0 4, node2 9 -> node0
	if got := ta.Route(0, views); got != 0 {
		t.Errorf("topology-aware with node1 full = %d, want 0", got)
	}
	if _, err := NewRouter("nope", nil); err == nil {
		t.Error("unknown router accepted")
	}
	if _, err := NewRouter("least-loaded", []byte(`{"x":1}`)); err == nil {
		t.Error("params on a no-param policy accepted")
	}
}

// TestReportVerify pins the fleet integrity gate for service results.
func TestReportVerify(t *testing.T) {
	rep, err := Run(smallSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rep.Encode()
	if !IsReportBody(b) {
		t.Error("report body not recognized as a service report")
	}
	if _, err := VerifyReportBody(b); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
	// Corrupt the claimed hash.
	rep.SpecHash = "deadbeef" + rep.SpecHash[8:]
	bad, _ := rep.Encode()
	if _, err := VerifyReportBody(bad); err == nil {
		t.Error("hash-mismatched report accepted")
	}
}

// TestSteadyStateServiceTickDoesNotAllocate pins the serving cell's heap
// traffic per event: the cell and warm-up are BenchmarkServiceTick's (one
// node, one long-lived DM3-640 session, the arrival burst and first frames
// spent in warm-up), and once Reserve has presized the event heap and the
// latency log, every further Step (heap pop, deadline bookkeeping, the
// warm streaming frame, the next frame's push) must reuse what it has.
func TestSteadyStateServiceTickDoesNotAllocate(t *testing.T) {
	cell, err := OpenCell(spec.ServiceSpec{
		ServiceVersion:     1,
		Nodes:              []spec.NodeGroup{{Count: 1}},
		Sessions:           []spec.SessionMix{{Workload: "DM3-640"}},
		Lambda:             2000,
		HorizonMs:          0.5,
		MeanFrames:         1e8, // the one admitted session outlives the test
		MaxSessionsPerNode: 1,
		Seed:               4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if !cell.Step() {
			t.Fatal("cell drained during warm-up")
		}
	}
	const runs = 200
	cell.Reserve(runs + 1) // AllocsPerRun makes one extra warm-up call
	step := func() {
		if !cell.Step() {
			t.Fatal("cell drained; raise MeanFrames")
		}
	}
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Errorf("steady-state service tick allocated %.2f times per step, want 0", avg)
	}
}

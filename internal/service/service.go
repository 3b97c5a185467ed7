// Package service is the cloud-serving layer: it runs a ServiceSpec — a
// cluster of simulated multi-GPU nodes fed by an open-loop Poisson session
// arrival process — as a deterministic discrete-event simulation in virtual
// time, and collects service-level metrics (frame-latency percentiles
// against the 90 Hz deadline, late/dropped frames, rejected sessions,
// per-node utilization) into a canonical Report.
//
// Each admitted session is a real streaming driver.Session on its own
// freshly bound multigpu.System: per-frame render cost comes from the
// simulator itself (the delta between consecutive SubmitFrame completion
// times), not from an analytic stand-in, so scheduler choice, topology and
// temporal coherence all show up in the service-level numbers. The node
// serializes co-resident sessions' frames FCFS in display-due order — the
// single-server queue that turns per-frame cost into queueing latency.
//
// A spec with NodeSweep or a multi-point LambdaSweep is a sweep; its cells
// are themselves standalone single-cell ServiceSpecs (CellSpecs), and every
// cell's random draws derive from the cell spec's content address — which
// is why serial, parallel and fleet-sharded execution produce byte-identical
// Reports. DESIGN.md §11 documents the model.
package service

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/obs"
	"oovr/internal/par"
	"oovr/internal/scene"
	"oovr/internal/spec"
	"oovr/internal/topo"
	"oovr/internal/workload"
)

// dropBehindDeadlines is how far (in deadlines) a frame's queueing delay
// may fall behind its due time before the frame is skipped instead of
// rendered — the client-side frame dropping every streaming stack does
// under overload.
const dropBehindDeadlines = 2

// evictAfterDrops is how many consecutive dropped frames evict a session:
// sustained collapse means the node cannot hold the session at all.
const evictAfterDrops = 30

// CellSpecs expands a (possibly swept) spec into its cells: the cross
// product of NodeSweep (or the literal cluster) and LambdaSweep, each a
// standalone single-cell ServiceSpec in row-major order (node counts outer,
// rates inner). A single-cell spec expands to itself.
func CellSpecs(s spec.ServiceSpec) ([]spec.ServiceSpec, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	clusters := [][]spec.NodeGroup{n.Nodes}
	if len(n.NodeSweep) > 0 {
		clusters = nil
		for _, count := range n.NodeSweep {
			hw := *n.Nodes[0].Hardware
			clusters = append(clusters, []spec.NodeGroup{{Count: count, Hardware: &hw}})
		}
	}
	var cells []spec.ServiceSpec
	for _, nodes := range clusters {
		for _, lam := range n.LambdaSweep {
			c := n
			c.Nodes = nodes
			c.NodeSweep = nil
			c.LambdaSweep = []float64{lam}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// RunOptions configure sweep execution.
type RunOptions struct {
	// Parallel is the number of cells simulated concurrently (<=1 serial).
	// The assembled Report is byte-identical either way.
	Parallel int
}

// Run simulates every cell of the spec and assembles the canonical Report.
func Run(s spec.ServiceSpec, opt RunOptions) (Report, error) {
	cells, err := CellSpecs(s)
	if err != nil {
		return Report{}, err
	}
	reports := make([]CellReport, len(cells))
	errs := make([]error, len(cells))
	workers := opt.Parallel
	if workers < 1 {
		workers = 1
	}
	par.ForEach(workers, len(cells), func(i int) {
		reports[i], errs[i] = RunCell(cells[i])
	})
	for i, err := range errs {
		if err != nil {
			return Report{}, fmt.Errorf("service: cell %d: %w", i, err)
		}
	}
	return NewReport(s, reports)
}

// RunCell simulates one single-cell spec to drain.
func RunCell(s spec.ServiceSpec) (CellReport, error) {
	c, err := OpenCell(s)
	if err != nil {
		return CellReport{}, err
	}
	for c.Step() {
	}
	return c.Report(), nil
}

// event kinds, ordered so frames at an instant settle before arrivals
// observe the cluster.
const (
	evFrame = iota
	evArrival
)

// event is one heap entry: a session frame coming due, or an arrival.
type event struct {
	t    float64 // virtual ms
	kind int8
	seq  int32 // global tiebreak: stable FCFS within an instant
	sess int32 // session index (evFrame), arrival index (evArrival)
}

func (e event) less(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	return e.seq < o.seq
}

// arrival is one pre-drawn Poisson arrival: its instant and every random
// decision the session will need, fixed before simulation starts so event
// processing order can never perturb the draws.
type arrival struct {
	t      float64
	mix    int   // index into the resolved session mix
	frames int   // session duration
	seed   int64 // workload stream seed
}

// node is one simulated machine's queueing state.
type node struct {
	group    int
	freeAt   float64 // when the serial renderer frees (virtual ms)
	active   int
	admitted int
	busyMs   float64
}

// session is one admitted, still-resident session.
type session struct {
	node      int32
	frames    int     // total duration
	next      int     // next frame index
	due0      float64 // admission instant: frame i is due at due0 + i*period
	prevEnd   float64 // previous SubmitFrame completion (cycles)
	drops     int     // consecutive dropped frames
	cyclesPMs float64 // the node's cycles-per-ms conversion
	ses       *driver.Session
	stream    *workload.Stream
	frame     scene.Frame // reused storage for NextInto
}

// Cell is one in-flight cell simulation. OpenCell resolves the spec and
// pre-draws the arrival process; Step processes one event; Report collects
// the totals once drained. RunCell is the drain-it-all convenience; the
// incremental surface exists so steady-state per-event cost is measurable
// (BenchmarkServiceTick) and stays allocation-free.
type Cell struct {
	sp      spec.ServiceSpec
	router  Router
	groups  []group
	nodes   []node
	views   []NodeView
	heap    []event
	seq     int32
	arrives []arrival
	nextArr int

	periodMs float64
	deadline float64

	sessions []*session
	free     []int32 // recycled session slots

	// totals
	rep       CellReport
	active    int
	latencies []float64
	makespan  float64

	// tl, when attached, records session-lifecycle lanes: admit/reject
	// instants on a cluster admission lane, frame spans and drop/evict
	// instants on per-node lanes. Lane time is virtual microseconds
	// (TicksPerUs 1; the cell clock runs in ms, scaled by usTicks).
	// Observation only — never read back. Nil costs one branch per event,
	// which BenchmarkServiceTick's 0 allocs/op gate covers.
	tl     *obs.Timeline
	tlAdm  obs.LaneID
	tlNode []obs.LaneID
}

// usTicks converts the cell's virtual-ms clock to integer microsecond
// ticks for timeline recording (sub-ms frame costs survive).
func usTicks(ms float64) int64 { return int64(ms * 1000) }

// AttachTimeline starts recording session-lifecycle events into tl: one
// "cluster/admission" lane plus a "nodeN/sessions" lane per node. Attach
// right after OpenCell, before the first Step, so lane order is
// deterministic. A nil tl is a no-op.
func (c *Cell) AttachTimeline(tl *obs.Timeline) {
	if tl == nil {
		return
	}
	c.tl = tl
	c.tlAdm = tl.AddLane("cluster", "admission", 1)
	c.tlNode = make([]obs.LaneID, len(c.nodes))
	for i := range c.nodes {
		c.tlNode[i] = tl.AddLane(fmt.Sprintf("node%d", i), "sessions", 1)
	}
}

// group is one resolved node group: everything shared by its nodes.
type group struct {
	opts       multigpu.Options
	fabricCost float64
	cyclesPMs  float64
}

// OpenCell resolves a single-cell spec and pre-draws its arrivals. Sweep
// specs (NodeSweep or a multi-point LambdaSweep) are refused — expand them
// with CellSpecs first.
func OpenCell(s spec.ServiceSpec) (*Cell, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if len(n.NodeSweep) > 0 || len(n.LambdaSweep) != 1 {
		return nil, fmt.Errorf("service: spec is a sweep (%d node counts x %d rates); expand with CellSpecs",
			max(1, len(n.NodeSweep)), len(n.LambdaSweep))
	}
	router, err := NewRouter(n.Router.Name, n.Router.Params)
	if err != nil {
		return nil, err
	}
	c := &Cell{sp: n, router: router, periodMs: 1000 / n.RefreshHz, deadline: n.DeadlineMs}
	for gi, g := range n.Nodes {
		opts := *g.Hardware
		graph, err := topo.Build(opts.Config.TopologyParams())
		if err != nil {
			return nil, fmt.Errorf("service: node group %d: %w", gi, err)
		}
		gr := group{
			opts:       opts,
			fabricCost: meanHops(graph),
			cyclesPMs:  opts.Config.ClockGHz * 1e6,
		}
		c.groups = append(c.groups, gr)
		for i := 0; i < g.Count; i++ {
			id := len(c.nodes)
			c.nodes = append(c.nodes, node{group: gi})
			c.views = append(c.views, NodeView{
				ID:         id,
				Capacity:   n.MaxSessionsPerNode,
				NumGPMs:    opts.Config.NumGPMs,
				FabricCost: gr.fabricCost,
			})
		}
	}
	c.rep.Nodes = len(c.nodes)
	c.rep.Lambda = n.LambdaSweep[0]
	c.rep.NodeSessions = make([]int, len(c.nodes))
	c.rep.NodeUtilization = make([]float64, len(c.nodes))
	c.drawArrivals()
	// Seed the heap with the first arrival; later arrivals enter as their
	// predecessors are processed, keeping the heap small.
	if len(c.arrives) > 0 {
		c.push(event{t: c.arrives[0].t, kind: evArrival, seq: c.nextSeq(), sess: 0})
		c.nextArr = 1
	}
	return c, nil
}

// meanHops is the mean route length over all ordered GPM pairs — the
// scalar fabric cost topology-aware routing weighs load by.
func meanHops(g *topo.Graph) float64 {
	n := g.NumGPMs()
	if n < 2 {
		return 1
	}
	total := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				total += len(g.Route(s, d))
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}

// drawArrivals fixes the whole arrival process up front: instants from the
// Poisson process, and each session's mix draw, duration and stream seed.
// The RNG seeds from the cell spec's content address, so the same cell
// produces the same arrivals wherever it runs.
func (c *Cell) drawArrivals() {
	seed, err := c.sp.CellSeed()
	if err != nil {
		// Normalized specs always canonicalize; this cannot happen past
		// OpenCell's validation.
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	lambda := c.sp.LambdaSweep[0]
	if lambda <= 0 {
		return
	}
	var weightSum float64
	for _, m := range c.sp.Sessions {
		weightSum += m.Weight
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() / lambda * 1000
		if t >= c.sp.HorizonMs {
			return
		}
		mix := 0
		w := rng.Float64() * weightSum
		for i, m := range c.sp.Sessions {
			if w < m.Weight || i == len(c.sp.Sessions)-1 {
				mix = i
				break
			}
			w -= m.Weight
		}
		frames := 1 + int(rng.ExpFloat64()*(c.sp.MeanFrames-1)+0.5)
		c.arrives = append(c.arrives, arrival{t: t, mix: mix, frames: frames, seed: rng.Int63()})
	}
}

// Reserve presizes the event heap and latency log for n more frame events,
// so a steady-state measurement loop runs allocation-free.
func (c *Cell) Reserve(n int) {
	if cap(c.latencies)-len(c.latencies) < n {
		grown := make([]float64, len(c.latencies), len(c.latencies)+n)
		copy(grown, c.latencies)
		c.latencies = grown
	}
	if cap(c.heap)-len(c.heap) < n {
		grown := make([]event, len(c.heap), len(c.heap)+n)
		copy(grown, c.heap)
		c.heap = grown
	}
}

func (c *Cell) nextSeq() int32 { c.seq++; return c.seq }

// push inserts an event into the min-heap. The heap is hand-rolled over a
// value slice (no container/heap) so steady-state pushes never box events
// into interfaces.
func (c *Cell) push(e event) {
	c.heap = append(c.heap, e)
	i := len(c.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.heap[i].less(c.heap[p]) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

// pop removes the earliest event.
func (c *Cell) pop() event {
	top := c.heap[0]
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && c.heap[l].less(c.heap[small]) {
			small = l
		}
		if r < last && c.heap[r].less(c.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		c.heap[i], c.heap[small] = c.heap[small], c.heap[i]
		i = small
	}
	return top
}

// Step processes one event and reports whether any remain. A drained cell
// (no events left) returns false.
func (c *Cell) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	e := c.pop()
	switch e.kind {
	case evArrival:
		c.arrive(int(e.sess), e.t)
		if c.nextArr < len(c.arrives) {
			c.push(event{t: c.arrives[c.nextArr].t, kind: evArrival, seq: c.nextSeq(), sess: int32(c.nextArr)})
			c.nextArr++
		}
	case evFrame:
		c.renderFrame(c.sessions[e.sess], e)
	}
	return len(c.heap) > 0
}

// arrive routes one pre-drawn arrival and, if a node admits it, opens its
// streaming session.
func (c *Cell) arrive(idx int, t float64) {
	a := c.arrives[idx]
	c.rep.Arrivals++
	for i := range c.views {
		c.views[i].Active = c.nodes[i].active
		c.views[i].Admitted = c.nodes[i].admitted
	}
	pick := c.router.Route(c.rep.Arrivals-1, c.views)
	if pick < 0 || pick >= len(c.nodes) || c.nodes[pick].active >= c.sp.MaxSessionsPerNode {
		c.rep.Rejected++
		if c.tl != nil {
			c.tl.Instant(c.tlAdm, "reject", usTicks(t), obs.Arg{})
		}
		return
	}
	mix := c.sp.Sessions[a.mix]
	wc, ok := spec.WorkloadByName(mix.Workload)
	if !ok {
		// Validated at OpenCell; unreachable.
		panic("service: unregistered workload " + mix.Workload)
	}
	trace, _ := workload.TraceByName(c.sp.Motion)
	st := wc.Spec.Stream(wc.Width, wc.Height, a.frames, a.seed)
	st.Motion = workload.ReplayMotion(trace)
	gr := &c.groups[c.nodes[pick].group]
	sys := multigpu.New(gr.opts, st.Header())
	layout, _ := spec.LayoutByName(c.sp.Placement)
	layout(sys)
	sys.ReserveFrames(a.frames)
	planner, err := spec.NewPlanner(c.sp.Scheduler.Name, c.sp.Scheduler.Params)
	if err != nil {
		panic(err) // validated at OpenCell
	}

	var s *session
	var si int32
	if n := len(c.free); n > 0 {
		si = c.free[n-1]
		c.free = c.free[:n-1]
		s = c.sessions[si]
	} else {
		s = &session{}
		si = int32(len(c.sessions))
		c.sessions = append(c.sessions, s)
	}
	*s = session{
		node:      int32(pick),
		frames:    a.frames,
		due0:      t,
		cyclesPMs: gr.cyclesPMs,
		ses:       driver.Open(sys, planner),
		stream:    st,
		frame:     s.frame, // keep recycled storage
	}
	c.nodes[pick].active++
	c.nodes[pick].admitted++
	c.rep.Admitted++
	c.rep.NodeSessions[pick]++
	c.active++
	if c.active > c.rep.PeakSessions {
		c.rep.PeakSessions = c.active
	}
	if c.tl != nil {
		c.tl.Instant(c.tlAdm, "admit", usTicks(t), obs.Arg{K: "node", V: int64(pick)})
	}
	// Frame 0 is due at the admission instant.
	c.push(event{t: t, kind: evFrame, seq: c.nextSeq(), sess: si})
}

// renderFrame serves one due frame on its session's node: render it FCFS
// after the node frees, or skip it when the queue has collapsed past the
// drop threshold.
func (c *Cell) renderFrame(s *session, e event) {
	nd := &c.nodes[s.node]
	due := e.t
	start := nd.freeAt
	if due > start {
		start = due
	}
	if start-due > dropBehindDeadlines*c.deadline {
		// The node is too far behind for this frame to matter on screen.
		c.rep.DroppedFrames++
		s.drops++
		if c.tl != nil {
			c.tl.Instant(c.tlNode[s.node], "drop", usTicks(due), obs.Arg{K: "sess", V: int64(e.sess)})
		}
		// The stream must stay in lockstep with the frame index: a skipped
		// frame still consumes its pre-drawn jitter so later frames are
		// identical to an unloaded run's.
		if !s.stream.NextInto(&s.frame) {
			panic("service: stream exhausted early")
		}
		s.next++
		if s.drops > evictAfterDrops {
			if c.tl != nil {
				c.tl.Instant(c.tlNode[s.node], "evict", usTicks(due), obs.Arg{K: "sess", V: int64(e.sess)})
			}
			c.endSession(s, e.sess, false)
			return
		}
	} else {
		if !s.stream.NextInto(&s.frame) {
			panic("service: stream exhausted early")
		}
		end := float64(s.ses.SubmitFrame(&s.frame))
		cost := (end - s.prevEnd) / s.cyclesPMs
		s.prevEnd = end
		s.next++
		s.drops = 0
		finish := start + cost
		nd.freeAt = finish
		nd.busyMs += cost
		if finish > c.makespan {
			c.makespan = finish
		}
		lat := finish - due
		c.latencies = append(c.latencies, lat)
		c.rep.Frames++
		if lat > c.deadline {
			c.rep.LateFrames++
		}
		if c.tl != nil {
			c.tl.Span(c.tlNode[s.node], "frame", usTicks(start), usTicks(finish),
				obs.Arg{K: "sess", V: int64(e.sess)}, obs.Arg{K: "frame", V: int64(s.next - 1)})
		}
	}
	if s.next >= s.frames {
		c.endSession(s, e.sess, true)
		return
	}
	c.push(event{t: s.due0 + float64(s.next)*c.periodMs, kind: evFrame, seq: c.nextSeq(), sess: e.sess})
}

// endSession retires a session — completed its duration, or evicted after
// sustained collapse — and recycles its slot.
func (c *Cell) endSession(s *session, si int32, completed bool) {
	s.ses.Close()
	c.nodes[s.node].active--
	c.active--
	if completed {
		c.rep.Completed++
	} else {
		c.rep.DroppedSessions++
	}
	s.ses, s.stream = nil, nil
	c.free = append(c.free, si)
}

// Report collects the cell's totals. Call it only after Step has drained
// the event heap.
func (c *Cell) Report() CellReport {
	rep := c.rep
	rep.P50Ms = percentile(c.latencies, 0.50)
	rep.P95Ms = percentile(c.latencies, 0.95)
	rep.P99Ms = percentile(c.latencies, 0.99)
	for _, l := range c.latencies {
		if l > rep.MaxMs {
			rep.MaxMs = l
		}
	}
	if c.makespan > 0 {
		for i := range rep.NodeUtilization {
			rep.NodeUtilization[i] = c.nodes[i].busyMs / c.makespan
		}
	}
	rep.SLOMet = rep.Rejected == 0 && rep.DroppedFrames == 0 && rep.DroppedSessions == 0 &&
		rep.P99Ms <= c.deadline
	return rep
}

// percentile is the nearest-rank percentile of an unsorted sample (the
// sample is copied, not mutated).
func percentile(sample []float64, q float64) float64 {
	n := len(sample)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), sample...)
	slices.Sort(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

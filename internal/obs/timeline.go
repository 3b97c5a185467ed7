package obs

// Timeline records simulated-time execution spans on named lanes: which
// GPM ran which task when, which link carried which flow, where a frame
// begins and ends. Timeline ticks on the simulator's virtual clock and is
// replayed after the run into a Chrome trace-event / Perfetto file
// (traceevent.go).
//
// The recorder follows the observation-never-feeds-back rule: it is fed
// values the simulation already computed and returns nothing the
// simulation reads, so recording cannot perturb Metrics or golden
// fingerprints. A nil *Timeline is a valid no-op — instrumented code
// guards with one nil check and pays a single predictable branch when
// recording is off, which keeps the 0 allocs/op frame gates intact.
//
// A Timeline belongs to one run on one goroutine; it is NOT safe for
// concurrent use. Parallel sweeps give each run its own recorder.

// LaneID names a lane registered with AddLane. The zero-valued Timeline
// methods accept any LaneID from a nil receiver's AddLane (-1) and drop
// the event.
type LaneID int32

// EventKind distinguishes spans (a duration on a lane) from instants
// (a point marker).
type EventKind uint8

const (
	// KindSpan is a [Start, End] duration event.
	KindSpan EventKind = iota
	// KindInstant is a point event at Start (End == Start).
	KindInstant
)

// Arg is one small typed event argument. Keys are expected to be static
// strings; values are int64 so recording never boxes or allocates. An
// Arg with an empty key is absent.
type Arg struct {
	K string
	V int64
}

// Event is one recorded timeline entry. Start and End are in the lane's
// native ticks (cycles for hardware lanes, microseconds for service
// lanes); the encoder divides by the lane's TicksPerUs.
type Event struct {
	Lane  LaneID
	Kind  EventKind
	Name  string
	Start int64
	End   int64
	A, B  Arg
}

// Lane describes one recording track. Proc groups lanes into trace
// processes (one per GPM, link, or node); Name is the thread name within
// that process. TicksPerUs converts the lane's native time unit to
// microseconds for the trace-event encoding.
type Lane struct {
	Proc       string
	Name       string
	TicksPerUs float64
}

// DefaultTimelineCap bounds the event ring: when a run records more
// events than this, the oldest are overwritten and Dropped reports how
// many. 64Ki events cover a multi-frame HL2 run with ample headroom
// while keeping the preallocation a few megabytes.
const DefaultTimelineCap = 1 << 16

// Timeline is the per-run simulated-time recorder. See the package
// comment above for the concurrency and feedback rules.
type Timeline struct {
	lanes []Lane
	ring  []Event
	next  int
	total uint64
}

// NewTimeline returns a recorder with the default ring capacity. The
// ring is preallocated so steady-state recording never allocates.
func NewTimeline() *Timeline {
	return &Timeline{ring: make([]Event, 0, DefaultTimelineCap)}
}

// AddLane registers a recording track and returns its id. A nil
// receiver returns -1, which Span and Instant on a nil receiver accept.
// TicksPerUs must be positive: a lane that cannot be mapped to
// microseconds would silently corrupt the exported trace.
func (t *Timeline) AddLane(proc, name string, ticksPerUs float64) LaneID {
	if t == nil {
		return -1
	}
	if ticksPerUs <= 0 {
		panic("obs: AddLane needs a positive ticksPerUs")
	}
	t.lanes = append(t.lanes, Lane{Proc: proc, Name: name, TicksPerUs: ticksPerUs})
	return LaneID(len(t.lanes) - 1)
}

// Span records a duration event on lane. Nil receivers drop the event.
// Name must be a static string (it is stored by reference, not copied).
func (t *Timeline) Span(lane LaneID, name string, start, end int64, a, b Arg) {
	if t == nil {
		return
	}
	t.record(Event{Lane: lane, Kind: KindSpan, Name: name, Start: start, End: end, A: a, B: b})
}

// Instant records a point event on lane. Nil receivers drop the event.
func (t *Timeline) Instant(lane LaneID, name string, at int64, a Arg) {
	if t == nil {
		return
	}
	t.record(Event{Lane: lane, Kind: KindInstant, Name: name, Start: at, End: at, A: a})
}

// record appends until the ring is full, then overwrites oldest-first.
func (t *Timeline) record(e Event) {
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
}

// Lanes returns the registered lanes in registration order. The slice
// is the recorder's own; callers must not mutate it.
func (t *Timeline) Lanes() []Lane {
	if t == nil {
		return nil
	}
	return t.lanes
}

// Events returns the retained events in recording order (oldest first).
// When the ring wrapped, the result is a fresh slice; otherwise it
// aliases the ring. Callers must not mutate it.
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	if t.total <= uint64(len(t.ring)) {
		return t.ring
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped reports how many events were overwritten because the ring
// filled.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.total - uint64(len(t.ring))
}

// LaneUtil is one lane's busy fraction per time window, produced by
// Utilization.
type LaneUtil struct {
	Proc string
	Lane string
	// Busy[i] is the fraction of window i covered by spans, clamped
	// to [0, 1] (overlapping spans on one lane can nominally exceed 1).
	Busy []float64
}

// Utilization derives per-lane busy fractions over `windows` equal
// slices of the recorded horizon (microseconds). Lanes without spans
// are omitted. The second result is the horizon in microseconds.
func (t *Timeline) Utilization(windows int) ([]LaneUtil, float64) {
	if t == nil || windows <= 0 {
		return nil, 0
	}
	events := t.Events()
	horizon := 0.0
	for i := range events {
		e := &events[i]
		if e.Kind != KindSpan {
			continue
		}
		tp := t.lanes[e.Lane].TicksPerUs
		if end := float64(e.End) / tp; end > horizon {
			horizon = end
		}
	}
	if horizon <= 0 {
		return nil, 0
	}
	w := horizon / float64(windows)
	busy := make(map[LaneID][]float64)
	for i := range events {
		e := &events[i]
		if e.Kind != KindSpan || e.End <= e.Start {
			continue
		}
		tp := t.lanes[e.Lane].TicksPerUs
		s, en := float64(e.Start)/tp, float64(e.End)/tp
		wb := busy[e.Lane]
		if wb == nil {
			wb = make([]float64, windows)
			busy[e.Lane] = wb
		}
		lo := int(s / w)
		hi := int(en / w)
		if hi >= windows {
			hi = windows - 1
		}
		for wi := lo; wi <= hi; wi++ {
			ws, we := float64(wi)*w, float64(wi+1)*w
			if s > ws {
				ws = s
			}
			if en < we {
				we = en
			}
			if we > ws {
				wb[wi] += (we - ws) / w
			}
		}
	}
	out := make([]LaneUtil, 0, len(busy))
	for id, ln := range t.lanes {
		wb, ok := busy[LaneID(id)]
		if !ok {
			continue
		}
		for i, v := range wb {
			if v > 1 {
				wb[i] = 1
			}
		}
		out = append(out, LaneUtil{Proc: ln.Proc, Lane: ln.Name, Busy: wb})
	}
	return out, horizon
}

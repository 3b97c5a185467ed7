// Package obs is the zero-dependency observability layer: a metrics
// registry with Prometheus text exposition (registry.go, expose.go), a
// simulated-time span recorder with Perfetto export (timeline.go,
// traceevent.go), and an HTTP access-log middleware (httplog.go). Every
// other package instruments through it; nothing in it feeds back into
// simulation state — observation is strictly read-only, which is what
// keeps the golden fingerprints byte-identical with instrumentation
// compiled in (DESIGN.md §12 states the rules).
//
// The increment paths (Counter.Inc/Add, Gauge.Set/Add, Histogram.Observe)
// are lock-free atomics and allocate nothing, so they are safe on the
// simulator's hot paths without disturbing the 0 allocs/op benchmark
// gates. Registration and exposition take locks and may allocate; both
// happen off the hot path.
//
// Metric names must follow the repo naming scheme, enforced at
// registration (a misnamed metric panics at startup — the vet-style check
// every instrumented binary runs by existing): see CheckName.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family for exposition and name checking.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// The naming scheme (DESIGN.md §12): every metric is
// oovr_<subsystem>_<name>, lower-snake-case throughout; counters end in
// _total; histograms carry an explicit unit suffix; gauges carry neither.
var (
	nameRE  = regexp.MustCompile(`^oovr(_[a-z][a-z0-9]*)+$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

	// histogram unit suffixes the scheme accepts.
	unitSuffixes = []string{"_seconds", "_ms", "_cycles", "_bytes"}
)

// CheckName reports whether name is a valid metric name of the given kind
// under the repo naming scheme. The registry calls it on every
// registration and panics on violations, so a misnamed metric cannot ship.
func CheckName(name string, kind Kind) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("obs: metric %q does not match oovr_<subsystem>_<name> (lower snake case)", name)
	}
	total := strings.HasSuffix(name, "_total")
	switch kind {
	case KindCounter:
		if !total {
			return fmt.Errorf("obs: counter %q must end in _total", name)
		}
	case KindGauge:
		if total {
			return fmt.Errorf("obs: gauge %q must not end in _total", name)
		}
	case KindHistogram:
		if total {
			return fmt.Errorf("obs: histogram %q must not end in _total", name)
		}
		ok := false
		for _, u := range unitSuffixes {
			if strings.HasSuffix(name, u) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("obs: histogram %q must carry a unit suffix (%s)",
				name, strings.Join(unitSuffixes, ", "))
		}
	}
	return nil
}

// Registry holds metric families and renders them in the Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	hooks []func()
}

// family is one registered metric family: either a single series, a
// labeled vector of series, or a function sampled at exposition time.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histogram bucket upper bounds

	labels []string // label names (vector families)

	mu     sync.Mutex        // guards series for vectors
	series map[string]*serie // label key -> series
	single *serie            // non-vector families
	fn     func() float64    // function families (counter or gauge)
}

// serie is one concrete time series of a family.
type serie struct {
	labelVals []string

	count atomic.Int64  // counter value / histogram observation count
	bits  atomic.Uint64 // gauge value / histogram sum (float64 bits)
	hist  []atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// AddHook registers fn to run (under no registry lock) at the start of
// every exposition — the seam push-style instruments use to refresh
// gauges from state they cannot observe event-by-event (the fleet
// coordinator's per-worker health gauges).
func (r *Registry) AddHook(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// Names returns the sorted registered family names — the surface the
// naming-scheme tests walk.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// register validates and stores a family; duplicate names and scheme
// violations panic — both are programming errors worth failing at startup.
func (r *Registry) register(f *family) {
	if err := CheckName(f.name, f.kind); err != nil {
		panic(err)
	}
	for _, l := range f.labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Errorf("obs: metric %q label %q is not lower snake case", f.name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Errorf("obs: metric %q registered twice", f.name))
	}
	r.fams[f.name] = f
}

// Counter is a monotonically increasing count. Inc and Add are lock-free
// and allocation-free.
type Counter struct{ s *serie }

// Inc adds one.
func (c *Counter) Inc() { c.s.count.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.s.count.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.s.count.Load() }

// Gauge is a value that can go up and down. Set and Add are lock-free and
// allocation-free.
type Gauge struct{ s *serie }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adds d (atomically, CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.s.bits.Load()
		if g.s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// Histogram is a fixed-bucket distribution. Observe is lock-free and
// allocation-free: a linear scan over the (small, fixed) bucket bounds
// plus three atomic updates.
type Histogram struct {
	bounds []float64
	s      *serie
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.s.hist[i].Add(1)
	h.s.count.Add(1)
	for {
		old := h.s.bits.Load()
		if h.s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := &family{name: name, help: help, kind: KindCounter, single: &serie{}}
	r.register(f)
	return &Counter{s: f.single}
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := &family{name: name, help: help, kind: KindGauge, single: &serie{}}
	r.register(f)
	return &Gauge{s: f.single}
}

// NewCounterFunc registers a counter whose value is sampled from fn at
// exposition time — for instruments that already keep their own counts
// (the fleet coordinator's mutex-guarded Counters, the worker's atomics).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindCounter, fn: fn})
}

// NewGaugeFunc registers a gauge sampled from fn at exposition time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindGauge, fn: fn})
}

// DefBuckets are general-purpose latency buckets in seconds (1ms..60s).
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// NewHistogram registers and returns a fixed-bucket histogram. Bounds must
// be strictly increasing; an implicit +Inf bucket is appended.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Errorf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Errorf("obs: histogram %q bucket bounds must increase (%g after %g)",
				name, bounds[i], bounds[i-1]))
		}
	}
	b := append([]float64(nil), bounds...)
	s := &serie{hist: make([]atomic.Int64, len(b)+1)}
	f := &family{name: name, help: help, kind: KindHistogram, bounds: b, single: s}
	r.register(f)
	return &Histogram{bounds: b, s: s}
}

// CounterVec is a counter family with labels. With interns one series per
// distinct label combination.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Errorf("obs: counter vec %q needs at least one label", name))
	}
	f := &family{name: name, help: help, kind: KindCounter,
		labels: append([]string(nil), labels...), series: map[string]*serie{}}
	r.register(f)
	return &CounterVec{f: f}
}

// With returns the counter for the given label values (created on first
// use). The lookup takes the family lock; hot paths should hold on to the
// returned handle.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{s: v.f.withSerie(values)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Errorf("obs: gauge vec %q needs at least one label", name))
	}
	f := &family{name: name, help: help, kind: KindGauge,
		labels: append([]string(nil), labels...), series: map[string]*serie{}}
	r.register(f)
	return &GaugeVec{f: f}
}

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{s: v.f.withSerie(values)}
}

// seriesKeySep joins label values into a map key; 0xff never appears in
// valid UTF-8 label text, so joined keys cannot collide.
const seriesKeySep = "\xff"

func (f *family) withSerie(values []string) *serie {
	if len(values) != len(f.labels) {
		panic(fmt.Errorf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, seriesKeySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &serie{labelVals: append([]string(nil), values...)}
	f.series[key] = s
	return s
}

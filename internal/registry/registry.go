// Package registry holds the domain of every axis of a spec, named or
// numeric. A named axis (schedulers, workloads and layouts in
// internal/spec, topologies in internal/topo, routers in internal/service,
// motion traces in internal/workload) is one Table: it resolves a
// submitted spelling, rewrites aliases and case variants to the primary
// name so identical runs share one content address, lists the primaries,
// and formats the unknown-name error. A numeric field is one Bound, and
// every Validate hands its Bounds to Check: one rule, one message.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Table is one name-keyed component table. Primary names and aliases
// share the value map; Names reports primaries only, so error messages and
// listing endpoints stay canonical. It is safe for concurrent use.
type Table[V any] struct {
	mu     sync.RWMutex
	pkg    string       // message prefix: the owning package's name
	kind   string       // what the axis names, e.g. "scheduler"
	fold   bool         // case-insensitive lookup
	values map[string]V // by folded key
	// primary maps a primary entry's folded key to its registered display
	// spelling, which listings and canonical specs preserve.
	primary map[string]string
	// canon maps every accepted key (primary or alias, folded) to the
	// primary display name, so spec normalization can rewrite aliases —
	// identical runs must canonicalize to identical bytes and content
	// addresses.
	canon map[string]string
}

// New returns an empty table. pkg prefixes every message ("spec",
// "topo", ...), kind names the axis in them, and fold makes lookups
// case-insensitive.
func New[V any](pkg, kind string, fold bool) *Table[V] {
	return &Table[V]{pkg: pkg, kind: kind, fold: fold,
		values: map[string]V{}, primary: map[string]string{}, canon: map[string]string{}}
}

func (t *Table[V]) key(name string) string {
	if t.fold {
		return strings.ToLower(name)
	}
	return name
}

// Register adds v under name plus any aliases. An empty name or a taken
// name or alias panics: registration is a programming error, not input.
func (t *Table[V]) Register(name string, v V, aliases ...string) {
	if name == "" {
		panic(t.pkg + ": " + t.kind + " registered with empty name")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := t.key(name)
	if _, dup := t.values[k]; dup {
		panic(fmt.Sprintf("%s: %s %q registered twice", t.pkg, t.kind, name))
	}
	t.values[k] = v
	t.primary[k] = name
	t.canon[k] = name
	for _, a := range aliases {
		ak := t.key(a)
		if _, dup := t.values[ak]; dup {
			panic(fmt.Sprintf("%s: %s alias %q registered twice", t.pkg, t.kind, a))
		}
		t.values[ak] = v
		t.canon[ak] = name
	}
}

// Lookup resolves any accepted spelling to its value.
func (t *Table[V]) Lookup(name string) (V, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.values[t.key(name)]
	return v, ok
}

// Canonical maps any accepted spelling (case variant or alias) to the
// registered primary name; unregistered names come back unchanged so the
// resolution error can still report them verbatim.
func (t *Table[V]) Canonical(name string) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if p, ok := t.canon[t.key(name)]; ok {
		return p
	}
	return name
}

// Names returns the sorted primary names in their registered spelling.
func (t *Table[V]) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.primary))
	for _, name := range t.primary {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Unknown formats the resolution error every submission surface reports:
// the unknown name plus the sorted list of registered ones.
func (t *Table[V]) Unknown(name string) error {
	return fmt.Errorf("%s: unknown %s %q (registered: %s)",
		t.pkg, t.kind, name, strings.Join(t.Names(), ", "))
}

// MaxGPMs is the largest GPM count a machine may have: topo.Build routes
// every GPM pair, about cubic work (a 64-GPM full mesh takes ~4 ms).
const MaxGPMs = 64

// Bound is one numeric field's domain: V must be finite, with Lo ≤ V ≤ Hi
// (finite bounds). A positive quantity's Lo is a positive constant in the
// model's units, so a denormal cannot turn a rate into +Inf.
type Bound struct {
	Field  string
	V      float64
	Lo, Hi float64
}

// In states that field's value v must lie in [lo, hi].
func In(field string, v, lo, hi float64) Bound { return Bound{Field: field, V: v, Lo: lo, Hi: hi} }

// Optional is In for a knob whose 0 selects a default: 0 passes too.
func Optional(field string, v, lo, hi float64) Bound {
	if v == 0 {
		lo = 0
	}
	return In(field, v, lo, hi)
}

// Check returns an error naming the first bound outside its range, NaN
// included, prefixed by pkg. It allocates only the error.
func Check(pkg string, bs ...Bound) error {
	for i := range bs {
		if b := &bs[i]; !(b.V >= b.Lo && b.V <= b.Hi) { // NaN fails both
			return fmt.Errorf("%s: %s %v out of [%v,%v]", pkg, b.Field, b.V, b.Lo, b.Hi)
		}
	}
	return nil
}

package registry

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestFoldedAndExactLookup pins the two lookup modes: a folding table
// accepts any case variant, an exact table only the registered spelling.
func TestFoldedAndExactLookup(t *testing.T) {
	folded := New[int]("pkg", "thing", true)
	folded.Register("Alpha", 1)
	for _, name := range []string{"Alpha", "alpha", "ALPHA"} {
		if v, ok := folded.Lookup(name); !ok || v != 1 {
			t.Errorf("folded Lookup(%q) = %d, %v; want 1, true", name, v, ok)
		}
	}
	exact := New[int]("pkg", "thing", false)
	exact.Register("Alpha", 1)
	if v, ok := exact.Lookup("Alpha"); !ok || v != 1 {
		t.Errorf("exact Lookup(Alpha) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := exact.Lookup("alpha"); ok {
		t.Error("exact table resolved a case variant")
	}
	if got := exact.Canonical("alpha"); got != "alpha" {
		t.Errorf("exact Canonical(alpha) = %q, want the name back unchanged", got)
	}
}

// TestAliasesCanonicalize pins that every accepted spelling resolves to
// the primary's value and canonicalizes to its registered spelling, while
// unregistered names come back verbatim.
func TestAliasesCanonicalize(t *testing.T) {
	tb := New[string]("pkg", "thing", true)
	tb.Register("OO-VR", "oovr", "oovr", "object")
	for _, name := range []string{"OO-VR", "oo-vr", "oovr", "OOVR", "Object"} {
		if v, ok := tb.Lookup(name); !ok || v != "oovr" {
			t.Errorf("Lookup(%q) = %q, %v; want oovr, true", name, v, ok)
		}
		if got := tb.Canonical(name); got != "OO-VR" {
			t.Errorf("Canonical(%q) = %q, want OO-VR", name, got)
		}
	}
	if got := tb.Canonical("Nope"); got != "Nope" {
		t.Errorf("Canonical(Nope) = %q, want Nope", got)
	}
}

// TestRegisterPanics pins the programming-error panics and their texts:
// an empty name, a taken name and an alias colliding with a taken name.
func TestRegisterPanics(t *testing.T) {
	tb := New[int]("pkg", "thing", true)
	tb.Register("a", 1, "x")
	for _, c := range []struct {
		name, want string
		reg        func()
	}{
		{"empty", "pkg: thing registered with empty name", func() { tb.Register("", 2) }},
		{"duplicate", `pkg: thing "A" registered twice`, func() { tb.Register("A", 2) }},
		{"alias on a name", `pkg: thing alias "A" registered twice`, func() { tb.Register("b", 2, "A") }},
		{"name on an alias", `pkg: thing "X" registered twice`, func() { tb.Register("X", 2) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic = %v, want %q", got, c.want)
				}
			}()
			c.reg()
		})
	}
}

// TestNamesSortedPrimaryOnly pins the listing: sorted, registered
// spellings, no aliases — and the unknown-name error that embeds it.
func TestNamesSortedPrimaryOnly(t *testing.T) {
	tb := New[int]("pkg", "thing", true)
	tb.Register("zeta", 1, "z")
	tb.Register("Alpha", 2, "a")
	tb.Register("mid", 3)
	if got, want := tb.Names(), []string{"Alpha", "mid", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %q, want %q", got, want)
	}
	want := `pkg: unknown thing "nope" (registered: Alpha, mid, zeta)`
	if err := tb.Unknown("nope"); err == nil || err.Error() != want {
		t.Errorf("Unknown(nope) = %v, want %q", err, want)
	}
}

// TestCheck pins the one numeric rule: NaN, ±Inf, a denormal below a
// positive Lo, and either side of the range fail with an error naming the
// field; the bounds themselves pass; and a passing check allocates nothing.
func TestCheck(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324,
		math.Nextafter(1e-3, 0), math.Nextafter(1e3, math.Inf(1))} {
		err := Check("pkg", In("Ok", 1, 0, 1), In("Rate", v, 1e-3, 1e3))
		if err == nil || !strings.HasPrefix(err.Error(), "pkg: Rate ") {
			t.Errorf("Rate %v: Check = %v, want an error naming Rate", v, err)
		}
	}
	if err := Check("pkg", In("Rate", 1e-3, 1e-3, 1e3), In("Rate", 1e3, 1e-3, 1e3)); err != nil {
		t.Errorf("the bounds themselves: %v", err)
	}
	const want = "pkg: NumGPMs 4096 out of [1,64]"
	if err := Check("pkg", In("NumGPMs", 4096, 1, MaxGPMs)); err == nil || err.Error() != want {
		t.Errorf("Check = %v, want %s", err, want)
	}
	v := 0.5
	if n := testing.AllocsPerRun(100, func() {
		_ = Check("pkg", In("A", v, 0, 1), In("B", v, 1e-3, 1e3), In("C", v, 0, 1))
	}); n != 0 {
		t.Errorf("a passing Check allocated %v times", n)
	}
}

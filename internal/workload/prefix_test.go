package workload

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"oovr/internal/scene"
)

// resetPrefixes empties the prefix cache, so the next open builds cold.
func resetPrefixes() {
	prefixes.mu.Lock()
	defer prefixes.mu.Unlock()
	prefixes.m = map[prefixKey]*prefix{}
	prefixes.weight = 0
}

func cached(sp Spec, width, height int, seed int64) *prefix {
	prefixes.mu.Lock()
	defer prefixes.mu.Unlock()
	return prefixes.m[keyOf(sp, width, height, seed)]
}

// drain returns a stream's header and every frame it yields.
func drain(st *Stream) (*scene.Scene, []scene.Frame) {
	h := st.Header()
	var frames []scene.Frame
	for {
		f, ok := st.Next()
		if !ok {
			return h, frames
		}
		frames = append(frames, *f)
	}
}

// TestCachedOpenEqualsColdBuild requires a stream whose prefix comes from
// the cache to yield the header and every frame a cold build yields: the
// fast-forwarded PRNG must continue exactly where the build left it, with
// the generator's random walk and with a Motion hook.
func TestCachedOpenEqualsColdBuild(t *testing.T) {
	pan := func(fi int) (float64, float64) { return float64(fi), -float64(fi) / 2 }
	for _, c := range Cases() {
		for _, frames := range []int{1, 6} {
			for _, seed := range []int64{1, 2} {
				for _, motion := range []bool{false, true} {
					if motion && c.Name != "HL2-1280" {
						continue
					}
					open := func() *Stream {
						st := c.Spec.Stream(c.Width, c.Height, frames, seed)
						if motion {
							st.Motion = pan
						}
						return st
					}
					name := fmt.Sprintf("%s frames=%d seed=%d motion=%v", c.Name, frames, seed, motion)
					resetPrefixes()
					coldH, cold := drain(open())
					if cached(c.Spec, c.Width, c.Height, seed) == nil {
						t.Fatalf("%s: the cold open left no cache entry", name)
					}
					warmH, warm := drain(open())
					if !reflect.DeepEqual(warmH, coldH) {
						t.Errorf("%s: cached header differs from the cold build's", name)
					}
					if len(warm) != frames || !reflect.DeepEqual(warm, cold) {
						t.Errorf("%s: cached stream's %d frames differ from the cold build's %d", name, len(warm), len(cold))
					}
				}
			}
		}
	}
}

// TestPrefixKeyCoversEveryStreamField requires every Spec field but the
// labels and the resolution list to reach the cache key: two recipes that
// differ in any field the generator reads must not share a prefix.
func TestPrefixKeyCoversEveryStreamField(t *testing.T) {
	sp, _ := ByAbbr("DM3")
	base := keyOf(sp, 640, 480, 1)
	v := reflect.ValueOf(sp)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		mod := sp
		f := reflect.ValueOf(&mod).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		default:
			f.Set(reflect.Zero(f.Type()))
		}
		ignored := name == "Name" || name == "Library" || name == "Resolutions"
		if same := keyOf(mod, 640, 480, 1) == base; same != ignored {
			t.Errorf("changing %s: same key = %v, want %v", name, same, ignored)
		}
	}
	for _, k := range []prefixKey{keyOf(sp, 641, 480, 1), keyOf(sp, 640, 481, 1), keyOf(sp, 640, 480, 2)} {
		if k == base {
			t.Errorf("resolution or seed missing from the key")
		}
	}
	zero, negZero := sp, sp
	zero.TriSigma, negZero.TriSigma = 0, math.Copysign(0, -1)
	if keyOf(zero, 640, 480, 1) == keyOf(negZero, 640, 480, 1) {
		t.Errorf("-0 and +0 share a key")
	}
	nan := sp
	nan.TexturesPerObject = math.NaN()
	if keyOf(nan, 640, 480, 1) != keyOf(nan, 640, 480, 1) {
		t.Errorf("a NaN recipe's key does not equal itself")
	}
}

// TestCacheHitOpenAllocations pins what an open on a cached prefix
// allocates: the rand source, the rand.Rand and the Stream — no names,
// textures or objects.
func TestCacheHitOpenAllocations(t *testing.T) {
	sp, _ := ByAbbr("NFS")
	sp.Stream(1280, 1024, 4, 1)
	if allocs := testing.AllocsPerRun(20, func() { sp.Stream(1280, 1024, 4, 1) }); allocs > 3 {
		t.Errorf("a cache-hit open allocates %v times, want at most 3", allocs)
	}
}

// TestConcurrentOpensAgree opens one key from 8 goroutines at once on an
// empty cache: however the builds race, every stream yields the cold
// build's frames. The race detector covers the cache's locking.
func TestConcurrentOpensAgree(t *testing.T) {
	c, _ := CaseByName("DM3-640")
	resetPrefixes()
	_, want := drain(c.Spec.Stream(c.Width, c.Height, 3, 9))
	resetPrefixes()
	got := make([][]scene.Frame, 8)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			_, got[g] = drain(c.Spec.Stream(c.Width, c.Height, 3, 9))
		}()
	}
	start.Done()
	done.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("goroutine %d's frames differ from a lone cold open's", g)
		}
	}
}

// TestPrefixCacheStaysBounded opens more distinct keys than either bound
// admits and checks the cache's entry count and weight after each open.
func TestPrefixCacheStaysBounded(t *testing.T) {
	defer resetPrefixes()
	check := func(what string) {
		t.Helper()
		prefixes.mu.Lock()
		defer prefixes.mu.Unlock()
		weight := 0
		for _, p := range prefixes.m {
			weight += p.weight
		}
		if len(prefixes.m) > prefixEntries || weight > prefixWeight || weight != prefixes.weight {
			t.Fatalf("%s: %d entries of weight %d (tracked %d), bounds %d and %d",
				what, len(prefixes.m), weight, prefixes.weight, prefixEntries, prefixWeight)
		}
	}
	resetPrefixes()
	small := ValidationSpec("Sponza")
	for seed := int64(1); seed <= prefixEntries+8; seed++ {
		small.Stream(64, 64, 1, seed)
		check(fmt.Sprintf("small seed %d", seed))
	}
	if cached(small, 64, 64, 1) != nil || cached(small, 64, 64, prefixEntries+8) == nil {
		t.Errorf("the least recently used entry was not the one evicted")
	}
	we, _ := ByAbbr("WE")
	for seed := int64(1); seed <= 24; seed++ {
		we.Stream(64, 64, 1, seed)
		check(fmt.Sprintf("WE seed %d", seed))
	}
	huge := small
	huge.Draws = prefixWeight
	huge.Stream(64, 64, 1, 1)
	check("an entry above the weight bound")
	if cached(huge, 64, 64, 1) != nil {
		t.Errorf("an entry above the weight bound was kept")
	}
}

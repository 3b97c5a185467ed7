package workload

import (
	"math"
	"math/rand"
	"sync"

	"oovr/internal/scene"
)

// The prefix cache's bounds. A figure cycle renders 11 distinct prefixes
// of at most 3,594 objects plus textures each (WE), so both bounds hold
// every paper case at several seeds; a serving sweep that opens a fresh
// seed per session only cycles through them.
const (
	prefixEntries = 64
	prefixWeight  = 1 << 16 // objects plus textures held
)

// prefix is the immutable start of a stream: the scene header (name,
// texture table, Capacity) and frame 0, whose objects' texture bindings
// share one arena. Streams of the same key share one prefix and only read
// it.
type prefix struct {
	header scene.Scene
	base   scene.Frame
	draws  int    // rand steps the build consumed
	weight int    // objects plus textures
	used   uint64 // LRU clock at the last hit
}

// prefixKey is every Spec field Stream reads, plus the resolution and
// seed. Floats enter as bit patterns, so a NaN recipe still hits and -0
// stays apart from +0.
type prefixKey struct {
	abbr          string
	counts        [3]int // Draws, TextureCount, Clusters
	floats        [9]uint64
	width, height int
	seed          int64
}

func keyOf(sp Spec, width, height int, seed int64) prefixKey {
	k := prefixKey{abbr: sp.Abbr, counts: [3]int{sp.Draws, sp.TextureCount, sp.Clusters},
		width: width, height: height, seed: seed}
	for i, f := range [9]float64{sp.MeanTriangles, sp.TriSigma, sp.Overdraw,
		sp.MeanTextureKB, sp.PrivateTexKB, sp.TexSigma,
		sp.TexturesPerObject, sp.CommonTextureFrac, sp.DependencyFrac} {
		k.floats[i] = math.Float64bits(f)
	}
	return k
}

// prefixes is the process-wide cache: at most prefixEntries entries and
// prefixWeight objects plus textures, least recently used evicted first.
var prefixes = prefixCache{m: map[prefixKey]*prefix{}}

type prefixCache struct {
	mu     sync.Mutex
	m      map[prefixKey]*prefix
	weight int
	clock  uint64
}

func (c *prefixCache) get(k prefixKey) *prefix {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.m[k]
	if p != nil {
		c.clock++
		p.used = c.clock
	}
	return p
}

// put keeps p unless it alone exceeds the weight bound or a concurrent
// open of the same key kept its own (identical) build first.
func (c *prefixCache) put(k prefixKey, p *prefix) {
	if p.weight > prefixWeight {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[k] != nil {
		return
	}
	c.clock++
	p.used = c.clock
	c.m[k] = p
	c.weight += p.weight
	for len(c.m) > prefixEntries || c.weight > prefixWeight {
		var lk prefixKey
		var lru *prefix
		for k, e := range c.m {
			if lru == nil || e.used < lru.used {
				lk, lru = k, e
			}
		}
		delete(c.m, lk)
		c.weight -= lru.weight
	}
}

// countingSource counts the steps a build draws from its source, so a
// cache hit can fast-forward a fresh source to the same state. Every
// math/rand draw the generator makes is whole Int63 or Uint64 steps.
type countingSource struct {
	rand.Source64
	n int
}

func (s *countingSource) Int63() int64 { s.n++; return s.Source64.Int63() }

func (s *countingSource) Uint64() uint64 { s.n++; return s.Source64.Uint64() }

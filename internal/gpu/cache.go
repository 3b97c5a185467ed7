package gpu

import "oovr/internal/registry"

// CacheModel is the transaction-level stand-in for the two-level cache
// hierarchy. Instead of simulating individual lines it answers the only
// question the NUMA study needs: of the bytes a rendering task *samples*,
// how many reach DRAM?
//
// The model distinguishes the first streaming pass over a texture on a GPM
// (compulsory misses: the whole working set reaches DRAM once) from
// subsequent passes (capacity misses only: a small refetch fraction, because
// Table 2's 1 MB-per-GPM slice of L2 holds the hot mip levels but not whole
// textures).
type CacheModel struct {
	// ReuseMissFactor is the fraction of a texture that is refetched from
	// DRAM when a task on the same GPM samples it again later in the frame.
	ReuseMissFactor float64
	// SampleBytesPerFragment is the average bytes of texel data a fragment
	// samples before any caching (16x anisotropic filtering touches many
	// texels, but L1 captures most of the overlap between adjacent
	// fragments; this constant is the post-L1 stream per fragment used to
	// bound small-object fetches).
	SampleBytesPerFragment float64
}

// DefaultCacheModel returns the calibrated default used by the experiments.
// SampleBytesPerFragment reflects Table 2's 16x anisotropic filtering: many
// texel taps per fragment of which the L1 absorbs the spatial overlap.
func DefaultCacheModel() CacheModel {
	return CacheModel{
		ReuseMissFactor:        0.15,
		SampleBytesPerFragment: 5,
	}
}

// TextureFetchBytes returns the DRAM-visible bytes for a task that shades
// frags fragments against a texture of texBytes bytes, given whether this
// GPM has already streamed the texture this frame.
//
// A task never fetches more than it samples (tiny objects do not stream a
// 4 MB texture) and never fetches more than the texture holds (large
// objects are bounded by compulsory misses).
func (c CacheModel) TextureFetchBytes(texBytes int64, frags float64, warm bool) float64 {
	sampled := frags * c.SampleBytesPerFragment
	full := float64(texBytes)
	want := full
	if sampled < full {
		want = sampled
	}
	if warm {
		return want * c.ReuseMissFactor
	}
	return want
}

// Validate returns an error naming the first parameter outside its domain.
func (c CacheModel) Validate() error {
	return registry.Check("gpu",
		registry.In("ReuseMissFactor", c.ReuseMissFactor, 0, 1),
		registry.In("SampleBytesPerFragment", c.SampleBytesPerFragment, minRate, maxRate))
}

package gpu

import (
	"strings"
	"testing"
	"testing/quick"

	"oovr/internal/topo"
)

func TestTable2ConfigMatchesPaper(t *testing.T) {
	c := Table2Config()
	if c.ClockGHz != 1 {
		t.Errorf("frequency = %v GHz, Table 2 says 1 GHz", c.ClockGHz)
	}
	if c.NumGPMs != 4 {
		t.Errorf("GPMs = %d, Table 2 says 4", c.NumGPMs)
	}
	if c.SMsPerGPM*c.NumGPMs != 32 {
		t.Errorf("total SMs = %d, Table 2 says 32", c.SMsPerGPM*c.NumGPMs)
	}
	if c.ShaderCoresPerSM != 64 {
		t.Errorf("cores/SM = %d, Table 2 says 64", c.ShaderCoresPerSM)
	}
	if c.L1KBPerSM != 128 {
		t.Errorf("L1 = %d KB, Table 2 says 128", c.L1KBPerSM)
	}
	if c.TextureUnitsPerSM != 4 {
		t.Errorf("TXU = %d, Table 2 says 4", c.TextureUnitsPerSM)
	}
	if c.AnisotropicFiltering != 16 {
		t.Errorf("aniso = %dx, Table 2 says 16x", c.AnisotropicFiltering)
	}
	if c.RasterTileSize != 16 {
		t.Errorf("raster tile = %d, Table 2 says 16x16", c.RasterTileSize)
	}
	if c.ROPsPerGPM*c.NumGPMs != 32 {
		t.Errorf("total ROPs = %d, Table 2 says 32", c.ROPsPerGPM*c.NumGPMs)
	}
	if c.L2MBTotal != 4 || c.L2Ways != 16 {
		t.Errorf("L2 = %d MB %d-way, Table 2 says 4 MB 16-way", c.L2MBTotal, c.L2Ways)
	}
	if c.InterGPMLinkGBs != 64 {
		t.Errorf("link = %v GB/s, Table 2 says 64", c.InterGPMLinkGBs)
	}
	if c.LocalDRAMGBs != 1024 {
		t.Errorf("DRAM = %v GB/s, Table 2 says 1 TB/s", c.LocalDRAMGBs)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGPMRatesDerivation(t *testing.T) {
	c := Table2Config()
	r := c.GPMRates()
	cores := float64(c.SMsPerGPM * c.ShaderCoresPerSM)
	if r.VerticesPerCycle != cores/c.VertexShaderCycles {
		t.Errorf("VerticesPerCycle = %v", r.VerticesPerCycle)
	}
	if r.FragmentsPerCycle != cores/c.FragmentShaderCycles {
		t.Errorf("FragmentsPerCycle = %v", r.FragmentsPerCycle)
	}
	// Section 3: each ROP outputs 4 pixels/cycle; 8 ROPs per GPM.
	if r.PixelsPerCycle != 32 {
		t.Errorf("PixelsPerCycle = %v, want 32", r.PixelsPerCycle)
	}
	if r.SMPTrianglesPerCycle != 1/c.SMPCyclesPerTriangle {
		t.Errorf("SMPTrianglesPerCycle = %v", r.SMPTrianglesPerCycle)
	}
}

func TestBandwidthConversions(t *testing.T) {
	c := Table2Config()
	if c.DRAMBytesPerCycle() != 1024 {
		t.Errorf("DRAM bytes/cycle = %v", c.DRAMBytesPerCycle())
	}
	if c.LinkBytesPerCycle() != 64 {
		t.Errorf("link bytes/cycle = %v", c.LinkBytesPerCycle())
	}
}

func TestWithGPMsAndLink(t *testing.T) {
	c := Table2Config().WithGPMs(8).WithLinkGBs(128)
	if c.NumGPMs != 8 || c.InterGPMLinkGBs != 128 {
		t.Errorf("With* did not apply: %+v", c)
	}
	// Per-GPM resources unchanged.
	if c.SMsPerGPM != 8 || c.ROPsPerGPM != 8 {
		t.Errorf("per-GPM resources changed by WithGPMs")
	}
}

// TestValidateRejectsBadConfigs pins that Validate names each rule's
// field. The interconnect rules (link bandwidth, shape parameters) are
// topo.Build's.
func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		want   string
		mutate func(*Config)
	}{
		{"gpu: ClockGHz must be positive", func(c *Config) { c.ClockGHz = 0 }},
		{"gpu: NumGPMs must be positive", func(c *Config) { c.NumGPMs = 0 }},
		{"gpu: SM configuration must be positive", func(c *Config) { c.SMsPerGPM = 0 }},
		{"gpu: ROP configuration must be positive", func(c *Config) { c.ROPsPerGPM = 0 }},
		{"gpu: LocalDRAMGBs must be positive", func(c *Config) { c.LocalDRAMGBs = 0 }},
		{"gpu: shader cycle costs must be positive", func(c *Config) { c.VertexShaderCycles = 0 }},
		{"gpu: fixed-function rates must be positive", func(c *Config) { c.RasterFragsPerCycle = 0 }},
	}
	for _, tc := range cases {
		c := Table2Config()
		tc.mutate(&c)
		if err := c.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("Validate = %v, want %s", err, tc.want)
		}
	}
	c := Table2Config()
	c.InterGPMLinkGBs = 0
	if _, err := topo.Build(c.TopologyParams()); err == nil {
		t.Error("a multi-GPM config without link bandwidth built a topology")
	}
}

func TestSingleGPMNeedsNoLink(t *testing.T) {
	c := Table2Config().WithGPMs(1)
	c.InterGPMLinkGBs = 0
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := topo.Build(c.TopologyParams()); err != nil {
		t.Errorf("a single GPM has no links: %v", err)
	}
}

func TestCacheModelColdStream(t *testing.T) {
	cm := CacheModel{ReuseMissFactor: 0.1, SampleBytesPerFragment: 8}
	// Large object on a small texture: bounded by texture size.
	got := cm.TextureFetchBytes(1024, 1e6, false)
	if got != 1024 {
		t.Errorf("cold fetch = %v, want full texture 1024", got)
	}
	// Tiny object on a huge texture: bounded by sampled bytes.
	got = cm.TextureFetchBytes(1<<20, 10, false)
	if got != 80 {
		t.Errorf("cold fetch = %v, want 80 sampled bytes", got)
	}
}

func TestCacheModelWarmReuse(t *testing.T) {
	cm := CacheModel{ReuseMissFactor: 0.1, SampleBytesPerFragment: 8}
	cold := cm.TextureFetchBytes(4096, 1e6, false)
	warm := cm.TextureFetchBytes(4096, 1e6, true)
	if warm != cold*0.1 {
		t.Errorf("warm fetch = %v, want %v", warm, cold*0.1)
	}
}

func TestCacheModelValidate(t *testing.T) {
	bad := CacheModel{ReuseMissFactor: 2, SampleBytesPerFragment: 8}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "ReuseMissFactor") {
		t.Errorf("Validate = %v, want an error naming ReuseMissFactor", err)
	}
}

// Property: warm fetches never exceed cold fetches, and fetches are always
// non-negative and bounded by the texture size.
func TestCacheModelBoundsQuick(t *testing.T) {
	cm := DefaultCacheModel()
	f := func(texKB uint16, frags uint32) bool {
		tex := int64(texKB) * 1024
		fr := float64(frags % 10_000_000)
		cold := cm.TextureFetchBytes(tex, fr, false)
		warm := cm.TextureFetchBytes(tex, fr, true)
		return cold >= 0 && warm >= 0 && warm <= cold+1e-9 && cold <= float64(tex)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

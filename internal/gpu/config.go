// Package gpu models the GPU modules (GPMs) of the multi-GPU system: the
// Table 2 baseline configuration, the per-stage throughput rates derived
// from it, and the cache hierarchy's filtering of texture traffic.
//
// Each GPM resembles the SMP-featured architecture of Figure 2(c): SMs with
// unified texture/L1 caches, PolyMorph engines with an SMP unit, a raster
// engine, ROPs, and a memory-side L2 in front of the local DRAM partition.
package gpu

import (
	"oovr/internal/registry"
	"oovr/internal/topo"
)

// Config is the machine configuration, defaulting to the paper's Table 2.
type Config struct {
	// ClockGHz is the GPU frequency (Table 2: 1 GHz).
	ClockGHz float64
	// NumGPMs is the number of GPU modules (Table 2: 4).
	NumGPMs int
	// SMsPerGPM is the SM count per GPM (Table 2: 32 total, 8 per GPM).
	SMsPerGPM int
	// ShaderCoresPerSM (Table 2: 64).
	ShaderCoresPerSM int
	// L1KBPerSM is the unified texture/L1 cache per SM (Table 2: 128 KB).
	L1KBPerSM int
	// TextureUnitsPerSM (Table 2: 4).
	TextureUnitsPerSM int
	// AnisotropicFiltering taps (Table 2: 16x).
	AnisotropicFiltering int
	// RasterTileSize is the tiled rasterization granularity (Table 2: 16x16).
	RasterTileSize int
	// ROPsPerGPM (Table 2: 32 total, 8 per GPM).
	ROPsPerGPM int
	// PixelsPerROPPerCycle follows "each ROP outputs 4 pixels per cycle"
	// (Section 3).
	PixelsPerROPPerCycle int
	// L2MBTotal is the aggregate L2 (Table 2: 4 MB, 16-way).
	L2MBTotal int
	// L2Ways (Table 2: 16).
	L2Ways int
	// InterGPMLinkGBs is the per-direction NVLink bandwidth (Table 2: 64).
	InterGPMLinkGBs float64
	// LocalDRAMGBs is the per-GPM local DRAM bandwidth (Table 2: 1 TB/s).
	LocalDRAMGBs float64

	// Interconnect topology. The zero values select the paper's fabric —
	// dedicated full-mesh links — so every existing configuration (and its
	// RunSpec content address) is unchanged. internal/topo documents the
	// registered topologies and the defaults the zero parameters imply.

	// Topology names the interconnect topology ("" = fullmesh).
	Topology string `json:",omitempty"`
	// TopologyMeshCols is mesh2d's grid width (0 = squarest grid).
	TopologyMeshCols int `json:",omitempty"`
	// TopologyPackageSize is hierarchical's GPMs per package (0 = 2).
	TopologyPackageSize int `json:",omitempty"`
	// TopologyTrunkGBs is hierarchical's off-package trunk bandwidth
	// (0 = InterGPMLinkGBs/2).
	TopologyTrunkGBs float64 `json:",omitempty"`
	// TopologyBackplaneGBs is switch's shared backplane budget
	// (0 = NumGPMs/2 x InterGPMLinkGBs).
	TopologyBackplaneGBs float64 `json:",omitempty"`

	// Shading cost knobs. These are the transaction-level stand-ins for
	// ATTILA's cycle-level shader execution; DESIGN.md §3 explains the
	// calibration.

	// VertexShaderCycles is the shader-core cycles to transform one vertex.
	VertexShaderCycles float64
	// FragmentShaderCycles is the shader-core cycles to shade one fragment.
	FragmentShaderCycles float64
	// SMPCyclesPerTriangle is the fixed-function cost for the SMP engine to
	// duplicate and re-project one triangle into the second viewport.
	SMPCyclesPerTriangle float64
	// TrianglesPerCyclePerRaster is the raster engine's triangle setup rate.
	TrianglesPerCyclePerRaster float64
	// RasterFragsPerCycle is the raster engine's fragment emission rate.
	RasterFragsPerCycle float64
}

// Table2Config returns the baseline configuration of the paper's Table 2.
func Table2Config() Config {
	return Config{
		ClockGHz:             1,
		NumGPMs:              4,
		SMsPerGPM:            8,
		ShaderCoresPerSM:     64,
		L1KBPerSM:            128,
		TextureUnitsPerSM:    4,
		AnisotropicFiltering: 16,
		RasterTileSize:       16,
		ROPsPerGPM:           8,
		PixelsPerROPPerCycle: 4,
		L2MBTotal:            4,
		L2Ways:               16,
		InterGPMLinkGBs:      64,
		LocalDRAMGBs:         1024,

		VertexShaderCycles:         96,
		FragmentShaderCycles:       32,
		SMPCyclesPerTriangle:       0.25,
		TrianglesPerCyclePerRaster: 4,
		RasterFragsPerCycle:        32,
	}
}

// WithGPMs returns a copy of c scaled to n GPMs. Per-GPM resources are kept
// constant (each GPM keeps 8 SMs, 8 ROPs, its own DRAM partition), matching
// the paper's Figure 18 scalability study where the system grows by adding
// GPMs.
func (c Config) WithGPMs(n int) Config {
	c.NumGPMs = n
	return c
}

// WithLinkGBs returns a copy of c with a different inter-GPM bandwidth, for
// the Figure 4 / Figure 17 sensitivity sweeps.
func (c Config) WithLinkGBs(gbs float64) Config {
	c.InterGPMLinkGBs = gbs
	return c
}

// WithTopology returns a copy of c using the named interconnect topology,
// for the topology sensitivity sweeps ("" restores the default full mesh).
func (c Config) WithTopology(name string) Config {
	c.Topology = name
	return c
}

// Rates are the per-GPM stage throughputs derived from a Config.
type Rates struct {
	// VerticesPerCycle is the geometry stage vertex transform rate.
	VerticesPerCycle float64
	// FragmentsPerCycle is the fragment shading rate.
	FragmentsPerCycle float64
	// SMPTrianglesPerCycle is the multi-projection duplication rate.
	SMPTrianglesPerCycle float64
	// SetupTrianglesPerCycle is the triangle setup rate.
	SetupTrianglesPerCycle float64
	// RasterFragsPerCycle is the rasterizer fragment emission rate.
	RasterFragsPerCycle float64
	// PixelsPerCycle is the ROP color-output rate.
	PixelsPerCycle float64
}

// GPMRates derives the per-GPM throughput rates from the configuration.
func (c Config) GPMRates() Rates {
	cores := float64(c.SMsPerGPM * c.ShaderCoresPerSM)
	return Rates{
		VerticesPerCycle:       cores / c.VertexShaderCycles,
		FragmentsPerCycle:      cores / c.FragmentShaderCycles,
		SMPTrianglesPerCycle:   1 / c.SMPCyclesPerTriangle,
		SetupTrianglesPerCycle: c.TrianglesPerCyclePerRaster,
		RasterFragsPerCycle:    c.RasterFragsPerCycle,
		PixelsPerCycle:         float64(c.ROPsPerGPM * c.PixelsPerROPPerCycle),
	}
}

// DRAMBytesPerCycle returns the per-GPM local DRAM service rate.
func (c Config) DRAMBytesPerCycle() float64 {
	return c.LocalDRAMGBs / c.ClockGHz
}

// LinkBytesPerCycle returns the per-direction link service rate.
func (c Config) LinkBytesPerCycle() float64 {
	return c.InterGPMLinkGBs / c.ClockGHz
}

// TopologyParams folds the interconnect knobs into the build parameters of
// the internal/topo registry — the one conversion point every surface
// (system construction, spec validation, figure sweeps) shares.
func (c Config) TopologyParams() topo.Params {
	return topo.Params{
		Name:         c.Topology,
		NumGPMs:      c.NumGPMs,
		LinkGBs:      c.InterGPMLinkGBs,
		MeshCols:     c.TopologyMeshCols,
		PackageSize:  c.TopologyPackageSize,
		TrunkGBs:     c.TopologyTrunkGBs,
		BackplaneGBs: c.TopologyBackplaneGBs,
	}
}

// The domains of the machine's numbers, above every value in use.
const (
	minGHz, maxGHz   = 1e-3, 1e3 // ClockGHz
	minGBs, maxGBs   = 1e-3, 1e6 // every bandwidth, GB/s
	maxUnits         = 1 << 12   // SMs, cores, ROPs, pixels per ROP per cycle
	minRate, maxRate = 1e-3, 1e6 // per-item costs (cycles, bytes) and per-cycle rates
)

// Validate returns an error naming the first field outside its domain. A
// topology bandwidth of 0 selects its default; a link bandwidth of 0 suits
// one GPM, which has no link, and topo.Build rejects it elsewhere. Build
// checks what only it can know: the name, each derived link, connectivity.
func (c Config) Validate() error {
	return registry.Check("gpu",
		registry.In("ClockGHz", c.ClockGHz, minGHz, maxGHz),
		registry.In("NumGPMs", float64(c.NumGPMs), 1, registry.MaxGPMs),
		registry.In("SMsPerGPM", float64(c.SMsPerGPM), 1, maxUnits),
		registry.In("ShaderCoresPerSM", float64(c.ShaderCoresPerSM), 1, maxUnits),
		registry.In("ROPsPerGPM", float64(c.ROPsPerGPM), 1, maxUnits),
		registry.In("PixelsPerROPPerCycle", float64(c.PixelsPerROPPerCycle), 1, maxUnits),
		registry.Optional("InterGPMLinkGBs", c.InterGPMLinkGBs, minGBs, maxGBs),
		registry.In("LocalDRAMGBs", c.LocalDRAMGBs, minGBs, maxGBs),
		registry.In("TopologyMeshCols", float64(c.TopologyMeshCols), 0, registry.MaxGPMs),
		registry.In("TopologyPackageSize", float64(c.TopologyPackageSize), 0, registry.MaxGPMs),
		registry.Optional("TopologyTrunkGBs", c.TopologyTrunkGBs, minGBs, maxGBs),
		registry.Optional("TopologyBackplaneGBs", c.TopologyBackplaneGBs, minGBs, maxGBs),
		registry.In("VertexShaderCycles", c.VertexShaderCycles, minRate, maxRate),
		registry.In("FragmentShaderCycles", c.FragmentShaderCycles, minRate, maxRate),
		registry.In("SMPCyclesPerTriangle", c.SMPCyclesPerTriangle, minRate, maxRate),
		registry.In("TrianglesPerCyclePerRaster", c.TrianglesPerCyclePerRaster, minRate, maxRate),
		registry.In("RasterFragsPerCycle", c.RasterFragsPerCycle, minRate, maxRate))
}

package multigpu

import (
	"fmt"
	"strings"
	"testing"

	"oovr/internal/mem"
)

// panicText runs f and returns what it panicked with, printed.
func panicText(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// TestValidationContract pins one contract per hardware rule: Validate
// returns an error naming the field, and the constructor code feeds (New,
// and mem.NewSystem for a memory rule) panics with exactly that text.
func TestValidationContract(t *testing.T) {
	sc := testScene()
	for _, c := range []struct {
		want string
		edit func(*Options)
	}{
		{"gpu: ClockGHz 0 out of [0.001,1000]", func(o *Options) { o.Config.ClockGHz = 0 }},
		{"gpu: NumGPMs 0 out of [1,64]", func(o *Options) { o.Config.NumGPMs = 0 }},
		{"gpu: ShaderCoresPerSM 0 out of [1,4096]", func(o *Options) { o.Config.ShaderCoresPerSM = 0 }},
		{"gpu: PixelsPerROPPerCycle 0 out of [1,4096]", func(o *Options) { o.Config.PixelsPerROPPerCycle = 0 }},
		{"gpu: LocalDRAMGBs -1 out of [0.001,1e+06]", func(o *Options) { o.Config.LocalDRAMGBs = -1 }},
		{"gpu: FragmentShaderCycles 0 out of [0.001,1e+06]", func(o *Options) { o.Config.FragmentShaderCycles = 0 }},
		{"gpu: SMPCyclesPerTriangle 0 out of [0.001,1e+06]", func(o *Options) { o.Config.SMPCyclesPerTriangle = 0 }},
		{"gpu: ReuseMissFactor 2 out of [0,1]", func(o *Options) { o.Cache.ReuseMissFactor = 2 }},
		{"gpu: SampleBytesPerFragment 0 out of [0.001,1e+06]", func(o *Options) { o.Cache.SampleBytesPerFragment = 0 }},
		{"multigpu: OverlapFactor 1.5 out of [0,1]", func(o *Options) { o.OverlapFactor = 1.5 }},
		{"multigpu: IssueCyclesPerDraw -1 out of [0,1e+06]", func(o *Options) { o.IssueCyclesPerDraw = -1 }},
		{"multigpu: ShipOverfetch -1 out of [0,1000]", func(o *Options) { o.ShipOverfetch = -1 }},
		{"mem: PageSize 0 out of [1,1e+09]", func(o *Options) { o.PageSize = 0 }},
		{"mem: RemoteCacheHitRate 2 out of [0,1]", func(o *Options) { o.RemoteCacheHitRate = 2 }},
	} {
		o := DefaultOptions()
		c.edit(&o)
		if err := o.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate = %v, want %s", err, c.want)
			continue
		}
		if got := panicText(func() { New(o, sc) }); got != c.want {
			t.Errorf("New panicked with %q, want Validate's %q", got, c.want)
		}
		if strings.HasPrefix(c.want, "mem: ") {
			if got := panicText(func() { mem.NewSystem(o.memConfig()) }); got != c.want {
				t.Errorf("mem.NewSystem panicked with %q, want %q", got, c.want)
			}
		}
	}
	// The memory system's own GPM count, which Options never leaves zero.
	const want = "mem: NumGPMs 0 out of [1,64]"
	cfg := mem.DefaultConfig(0)
	if err := cfg.Validate(); err == nil || err.Error() != want {
		t.Errorf("mem.Config.Validate = %v, want %s", err, want)
	}
	if got := panicText(func() { mem.NewSystem(cfg) }); got != want {
		t.Errorf("mem.NewSystem panicked with %q, want %q", got, want)
	}
	// A multi-GPM machine without link bandwidth passes Validate (0 is the
	// single-GPM value) and New panics with topo.Build's per-link error.
	o := DefaultOptions()
	o.Config.InterGPMLinkGBs = 0
	if err := o.Validate(); err != nil {
		t.Errorf("Validate checked the interconnect: %v", err)
	}
	if got, want := panicText(func() { New(o, sc) }), `multigpu: topo: link "link0->1" bandwidth 0 must be positive`; got != want {
		t.Errorf("New panicked with %q, want %q", got, want)
	}
}

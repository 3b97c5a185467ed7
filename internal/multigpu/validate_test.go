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
		{"gpu: ClockGHz must be positive", func(o *Options) { o.Config.ClockGHz = 0 }},
		{"gpu: NumGPMs must be positive", func(o *Options) { o.Config.NumGPMs = 0 }},
		{"gpu: SM configuration must be positive", func(o *Options) { o.Config.ShaderCoresPerSM = 0 }},
		{"gpu: ROP configuration must be positive", func(o *Options) { o.Config.PixelsPerROPPerCycle = 0 }},
		{"gpu: LocalDRAMGBs must be positive", func(o *Options) { o.Config.LocalDRAMGBs = -1 }},
		{"gpu: shader cycle costs must be positive", func(o *Options) { o.Config.FragmentShaderCycles = 0 }},
		{"gpu: fixed-function rates must be positive", func(o *Options) { o.Config.SMPCyclesPerTriangle = 0 }},
		{"gpu: ReuseMissFactor must be in [0,1]", func(o *Options) { o.Cache.ReuseMissFactor = 2 }},
		{"gpu: SampleBytesPerFragment must be positive", func(o *Options) { o.Cache.SampleBytesPerFragment = 0 }},
		{"multigpu: OverlapFactor 1.5 out of [0,1]", func(o *Options) { o.OverlapFactor = 1.5 }},
		{"multigpu: IssueCyclesPerDraw -1 must be non-negative", func(o *Options) { o.IssueCyclesPerDraw = -1 }},
		{"multigpu: ShipOverfetch -1 must be non-negative", func(o *Options) { o.ShipOverfetch = -1 }},
		{"mem: PageSize 0 must be positive", func(o *Options) { o.PageSize = 0 }},
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
	const want = "mem: NumGPMs must be positive"
	cfg := mem.DefaultConfig(0)
	if err := cfg.Validate(); err == nil || err.Error() != want {
		t.Errorf("mem.Config.Validate = %v, want %s", err, want)
	}
	if got := panicText(func() { mem.NewSystem(cfg) }); got != want {
		t.Errorf("mem.NewSystem panicked with %q, want %q", got, want)
	}
	// The interconnect is topo.Build's to check: Validate passes a
	// multi-GPM machine without link bandwidth, and New panics with
	// Build's error.
	o := DefaultOptions()
	o.Config.InterGPMLinkGBs = 0
	if err := o.Validate(); err != nil {
		t.Errorf("Validate checked the interconnect: %v", err)
	}
	if got, want := panicText(func() { New(o, sc) }), "multigpu: topo: LinkGBs 0 must be positive for multi-GPM systems"; got != want {
		t.Errorf("New panicked with %q, want %q", got, want)
	}
}

package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/pipeline"
	"oovr/internal/render"
	"oovr/internal/workload"
)

// imperativePlanners pairs every registered scheduler name with the
// imperative construction it must be indistinguishable from.
func imperativePlanners() map[string]driver.Planner {
	return map[string]driver.Planner{
		"baseline": render.Baseline{},
		"afr":      render.DefaultAFR(),
		"tilev":    render.TileV{},
		"tileh":    render.TileH{},
		"object":   render.ObjectSFR{},
		"ooapp":    core.NewOOApp(),
		"oovr":     core.NewOOVR(),
		"single":   render.SingleGPU{Mode: pipeline.ModeBothSMP},
	}
}

// TestSpecMatchesImperative is the tentpole equivalence guarantee: a
// RunSpec-driven run produces byte-identical Metrics to the equivalent
// imperative oovr.* calls, for every built-in scheduler.
func TestSpecMatchesImperative(t *testing.T) {
	c, ok := workload.CaseByName("DM3-640")
	if !ok {
		t.Fatal("missing benchmark case")
	}
	const frames, seed = 2, 1
	for name, p := range imperativePlanners() {
		sc := c.Spec.Generate(c.Width, c.Height, frames, seed)
		want := driver.Run(multigpu.New(multigpu.DefaultOptions(), sc), p)

		s := RunSpec{
			Workload:  WorkloadRef{Name: c.Name},
			Scheduler: SchedulerRef{Name: name},
			Frames:    frames,
			Seed:      seed,
		}
		got, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: spec-driven metrics diverged from imperative run\n got %+v\nwant %+v", name, got, want)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: canonical metric bytes differ", name)
		}
	}
}

// randomSpec synthesizes an arbitrary valid spec: the round-trip property
// must hold across the whole field space, not just the defaults.
func randomSpec(rng *rand.Rand) RunSpec {
	names := PlannerNames()
	s := RunSpec{
		Scheduler: SchedulerRef{Name: names[rng.Intn(len(names))]},
		Frames:    rng.Intn(6),
		Seed:      rng.Int63n(5),
	}
	wls := WorkloadNames()
	if rng.Intn(4) == 0 {
		sp := workload.Benchmarks()[rng.Intn(5)]
		s.Workload = WorkloadRef{Name: "inline-" + sp.Abbr, Inline: &sp}
	} else {
		s.Workload = WorkloadRef{Name: wls[rng.Intn(len(wls))]}
	}
	if rng.Intn(2) == 0 {
		s.Workload.Width, s.Workload.Height = 320+rng.Intn(1280), 240+rng.Intn(1024)
	}
	if rng.Intn(2) == 0 {
		opt := multigpu.DefaultOptions()
		opt.Config = opt.Config.WithGPMs(1 << rng.Intn(4)).WithLinkGBs([]float64{32, 64, 128, 1024}[rng.Intn(4)])
		opt.OverlapFactor = float64(rng.Intn(10)) / 10
		s.Hardware = &opt
	}
	if rng.Intn(2) == 0 {
		s.Placement = LayoutNames()[rng.Intn(len(LayoutNames()))]
	}
	if rng.Intn(3) == 0 {
		switch s.Scheduler.Name {
		case "afr":
			s.Scheduler.Params = json.RawMessage(fmt.Sprintf(`{"DriverCyclesPerKFrag": %d, "DriverCyclesPerDraw": %d}`,
				rng.Intn(50), rng.Intn(100)))
		case "oovr", "ooapp":
			s.Scheduler.Params = json.RawMessage(fmt.Sprintf(`{"TriangleCap": %d, "TSLThreshold": 0.%d}`,
				1024+rng.Intn(8192), 1+rng.Intn(9)))
		case "object":
			s.Scheduler.Params = json.RawMessage(fmt.Sprintf(`{"Root": %d}`, rng.Intn(4)))
		}
	}
	return s
}

// TestSpecRoundTrip is the serialization property test:
// decode(encode(spec)) resolves to an identical normalized spec, and the
// canonical encoding is a fixed point (canonicalizing a decoded canonical
// spec reproduces the same bytes — the cache-key stability the job server
// depends on).
func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := randomSpec(rng)
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("#%d encode: %v", i, err)
		}
		dec, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("#%d decode: %v\nspec: %s", i, err, enc)
		}
		nA, errA := s.Normalized()
		nB, errB := dec.Normalized()
		if errA != nil || errB != nil {
			t.Fatalf("#%d normalize: %v / %v", i, errA, errB)
		}
		if !reflect.DeepEqual(nA, nB) {
			t.Errorf("#%d decode(encode(spec)) normalized differently:\n %+v\nvs\n %+v", i, nA, nB)
		}

		canon, err := s.Canonical()
		if err != nil {
			t.Fatalf("#%d canonical: %v", i, err)
		}
		dec2, err := Decode(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("#%d decode canonical: %v", i, err)
		}
		canon2, err := dec2.Canonical()
		if err != nil {
			t.Fatalf("#%d re-canonical: %v", i, err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Errorf("#%d canonical encoding is not a fixed point:\n %s\nvs\n %s", i, canon, canon2)
		}
		h1, _ := s.Hash()
		h2, _ := dec2.Hash()
		if h1 != h2 || h1 == "" {
			t.Errorf("#%d hash drifted across round trip: %s vs %s", i, h1, h2)
		}
	}
}

// TestParamOrderInsensitiveHash pins the canonicalization of scheduler
// params: key order in the submitted JSON must not change the content
// address.
func TestParamOrderInsensitiveHash(t *testing.T) {
	a := RunSpec{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{
		Name: "oovr", Params: json.RawMessage(`{"TriangleCap": 2048, "TSLThreshold": 0.4}`)}}
	b := a
	b.Scheduler.Params = json.RawMessage(`{"TSLThreshold": 0.4, "TriangleCap": 2048}`)
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("param key order changed the content address: %s vs %s", ha, hb)
	}
}

// TestAliasAndCaseInsensitiveHash pins name canonicalization: every
// accepted spelling of a component resolves to the same run, so it must
// also hash to the same content address — otherwise the job server caches
// the identical simulation once per spelling.
func TestAliasAndCaseInsensitiveHash(t *testing.T) {
	base := RunSpec{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "oovr"}, Placement: "striped"}
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []RunSpec{
		{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "OOVR"}},
		{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "oo-vr"}},
		{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "oovr"}, Placement: "Striped"},
		// Semantically-empty params mean the defaults, like no params.
		{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "oovr", Params: json.RawMessage("null")}},
		{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "oovr", Params: json.RawMessage("{}")}},
	} {
		h, err := v.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != want {
			t.Errorf("spelling %q/%q hashed to %s, canonical %s", v.Scheduler.Name, v.Placement, h, want)
		}
	}
}

// TestPartialHardwareMergesDefaults pins the hardware decode semantics: an
// omitted calibration knob keeps its calibrated default instead of running
// the simulation with a silent zero.
func TestPartialHardwareMergesDefaults(t *testing.T) {
	raw := `{"workload":{"name":"WE"},"scheduler":{"name":"baseline"},"hardware":{"Config":{"NumGPMs":8}}}`
	s, err := Decode(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	def := multigpu.DefaultOptions()
	hw := s.Hardware
	if hw.Config.NumGPMs != 8 {
		t.Errorf("explicit NumGPMs lost: %d", hw.Config.NumGPMs)
	}
	if hw.ShipOverfetch != def.ShipOverfetch || hw.RemoteCacheHitRate != def.RemoteCacheHitRate ||
		hw.OverlapFactor != def.OverlapFactor || hw.Config.LocalDRAMGBs != def.Config.LocalDRAMGBs ||
		hw.Cache.SampleBytesPerFragment != def.Cache.SampleBytesPerFragment {
		t.Errorf("omitted hardware knobs zeroed instead of defaulted: %+v", hw)
	}
	if _, err := s.Run(); err != nil {
		t.Errorf("partial hardware spec failed to run: %v", err)
	}
}

// TestDecodeRejectsTrailingData pins the strict decoder: a half-edited
// file with a second document after the spec must error, not silently run
// the first one.
func TestDecodeRejectsTrailingData(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"workload":{"name":"WE"},"scheduler":{"name":"oovr"}}{"frames":9}`))
	if err == nil {
		t.Error("trailing document accepted")
	}
	if _, err := Decode(strings.NewReader(`{"workload":{"name":"WE"},"scheduler":{"name":"oovr"}}` + "\n \n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestUnknownComponentErrors pins the resolution errors: unknown names
// report the sorted list of registered ones.
func TestUnknownComponentErrors(t *testing.T) {
	_, err := RunSpec{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "nope"}}.Run()
	if err == nil {
		t.Fatal("unknown scheduler did not error")
	}
	wantList := strings.Join(PlannerNames(), ", ")
	if !strings.Contains(err.Error(), wantList) {
		t.Errorf("scheduler error %q does not list registered names %q", err, wantList)
	}

	_, err = RunSpec{Workload: WorkloadRef{Name: "nope"}, Scheduler: SchedulerRef{Name: "oovr"}}.Run()
	if err == nil || !strings.Contains(err.Error(), "HL2-1280") {
		t.Errorf("unknown workload error %v does not list registered cases", err)
	}

	_, err = RunSpec{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "oovr"}, Placement: "nope"}.Run()
	if err == nil || !strings.Contains(err.Error(), "striped") {
		t.Errorf("unknown layout error %v does not list registered layouts", err)
	}

	_, err = NewPlanner("afr", json.RawMessage(`{"NoSuchKnob": 1}`))
	if err == nil {
		t.Error("unknown scheduler param did not error")
	}
	// Root belongs to ooapp (master composition) but not oovr (distributed
	// composition) — a submitted no-op knob must be rejected, not hashed.
	if _, err = NewPlanner("ooapp", json.RawMessage(`{"Root": 2}`)); err != nil {
		t.Errorf("ooapp Root param rejected: %v", err)
	}
	if _, err = NewPlanner("oovr", json.RawMessage(`{"Root": 2}`)); err == nil {
		t.Error("oovr accepted the inapplicable Root param")
	}
}

// TestParamRangeValidation pins that out-of-range params fail at Resolve
// time with an error instead of panicking mid-simulation.
func TestParamRangeValidation(t *testing.T) {
	bad := []SchedulerRef{
		{Name: "oovr", Params: json.RawMessage(`{"TSLThreshold": 1.5}`)},
		{Name: "oovr", Params: json.RawMessage(`{"TriangleCap": 0}`)},
		{Name: "ooapp", Params: json.RawMessage(`{"TSLThreshold": -0.1}`)},
		{Name: "ooapp", Params: json.RawMessage(`{"Root": -1}`)},
		{Name: "afr", Params: json.RawMessage(`{"DriverCyclesPerDraw": -5}`)},
		{Name: "object", Params: json.RawMessage(`{"Root": 7}`)}, // 4-GPM default
		{Name: "ooapp", Params: json.RawMessage(`{"Root": 4}`)},  // one past the end
	}
	for _, sref := range bad {
		rs := RunSpec{Workload: WorkloadRef{Name: "WE"}, Scheduler: sref}
		if _, err := rs.Resolve(); err == nil {
			t.Errorf("%s params %s validated", sref.Name, sref.Params)
		}
	}
	// A Root inside a larger system is fine.
	opt := multigpu.DefaultOptions()
	opt.Config = opt.Config.WithGPMs(8)
	ok := RunSpec{Workload: WorkloadRef{Name: "WE"},
		Scheduler: SchedulerRef{Name: "object", Params: json.RawMessage(`{"Root": 7}`)},
		Hardware:  &opt}
	if _, err := ok.Resolve(); err != nil {
		t.Errorf("in-range Root rejected: %v", err)
	}
}

// TestHardwareOptionValidation pins that an out-of-range memory, ship or
// issue knob fails at Resolve time with an error naming the knob, instead
// of panicking (or silently reporting 0 cycles) inside Execute.
func TestHardwareOptionValidation(t *testing.T) {
	for _, c := range []struct{ hw, knob string }{
		{`{"RemoteCacheHitRate": 2}`, "RemoteCacheHitRate"},
		{`{"PageSize": -1}`, "PageSize"},
		{`{"PageSize": 0}`, "PageSize"},
		{`{"ShipOverfetch": -1}`, "ShipOverfetch"},
		{`{"IssueCyclesPerDraw": -1e9}`, "IssueCyclesPerDraw"},
	} {
		s, err := Decode(strings.NewReader(`{"workload":{"name":"DM3-640"},"scheduler":{"name":"tilev"},"hardware":` + c.hw + `}`))
		if err != nil {
			t.Fatalf("%s: %v", c.hw, err)
		}
		if _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), c.knob) {
			t.Errorf("hardware %s: Resolve = %v, want an error naming %s", c.hw, err, c.knob)
		}
	}
}

// TestValidMiddlewareRejectsNaN pins that a NaN threshold, which passes
// both range comparisons of a naive check, is an error rather than a
// middleware that silently never groups.
func TestValidMiddlewareRejectsNaN(t *testing.T) {
	if err := validMiddleware(math.NaN(), 4096); err == nil {
		t.Error("a NaN TSLThreshold validated")
	}
}

// TestInlineRecipeValidation requires Resolve to reject, by field name,
// an inline recipe the generator would divide by zero, take the log of a
// negative, scale by a non-finite number or size past int64 with, and a
// non-positive resolution; every built-in recipe validates, and one at
// every bound runs.
func TestInlineRecipeValidation(t *testing.T) {
	for _, sp := range append(workload.Benchmarks(), workload.ValidationSpec("Sponza"), workload.ValidationSpec("SanMiguel")) {
		if err := sp.Validate(); err != nil {
			t.Errorf("built-in %s: %v", sp.Abbr, err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		edit  func(*workload.Spec)
	}{
		{"Draws", func(sp *workload.Spec) { sp.Draws = 0 }},
		{"TextureCount", func(sp *workload.Spec) { sp.TextureCount = -1 }},
		{"Clusters", func(sp *workload.Spec) { sp.Clusters = 0 }},
		{"Clusters", func(sp *workload.Spec) { sp.Clusters = -1 }},
		{"MeanTriangles", func(sp *workload.Spec) { sp.MeanTriangles = -5 }},
		{"MeanTriangles", func(sp *workload.Spec) { sp.MeanTriangles = nan }},
		{"TriSigma", func(sp *workload.Spec) { sp.TriSigma = inf }},
		{"Overdraw", func(sp *workload.Spec) { sp.Overdraw = -1 }},
		{"Overdraw", func(sp *workload.Spec) { sp.Overdraw = 0 }},
		{"MeanTextureKB", func(sp *workload.Spec) { sp.MeanTextureKB = nan }},
		{"PrivateTexKB", func(sp *workload.Spec) { sp.PrivateTexKB = -1 }},
		{"TexSigma", func(sp *workload.Spec) { sp.TexSigma = -0.5 }},
		{"TexturesPerObject", func(sp *workload.Spec) { sp.TexturesPerObject = -inf }},
		// Finite but past the bounds that keep sizes within int64.
		{"MeanTriangles", func(sp *workload.Spec) { sp.MeanTriangles = 1e300 }},
		{"TriSigma", func(sp *workload.Spec) { sp.TriSigma = 1e300 }},
		{"MeanTextureKB", func(sp *workload.Spec) { sp.MeanTextureKB = 1e300 }},
		{"PrivateTexKB", func(sp *workload.Spec) { sp.PrivateTexKB = 1e5 + 1 }},
		{"TexSigma", func(sp *workload.Spec) { sp.TexSigma = 1.61 }},
	} {
		sp := workload.Benchmarks()[0]
		tc.edit(&sp)
		s := RunSpec{Workload: WorkloadRef{Name: "bad", Inline: &sp}, Scheduler: SchedulerRef{Name: "oovr"}}
		if _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("inline recipe with a bad %s: Resolve error %v, want one naming the field", tc.field, err)
		}
	}
	s := RunSpec{Workload: WorkloadRef{Name: "DM3-640", Width: -640}, Scheduler: SchedulerRef{Name: "oovr"}}
	if _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), "resolution") {
		t.Errorf("negative width: Resolve error %v, want one naming the resolution", err)
	}
	// A recipe at every bound resolves and runs.
	edge := workload.Benchmarks()[0]
	edge.MeanTriangles, edge.TriSigma, edge.TexSigma = 1e6, 1.6, 1.6
	edge.MeanTextureKB, edge.PrivateTexKB = 1e5, 1e5
	r, err := RunSpec{Workload: WorkloadRef{Name: "edge", Inline: &edge}, Scheduler: SchedulerRef{Name: "oovr"}, Frames: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if m := r.Execute(); !(m.TotalCycles > 0) || math.IsInf(m.TotalCycles, 0) {
		t.Errorf("a recipe at the bounds ran %v cycles", m.TotalCycles)
	}
}

// TestPartialResolutionOverride pins that overriding one dimension keeps
// it: the other defaults from the case, and the content address differs
// from the unmodified spec (the cache must not alias them).
func TestPartialResolutionOverride(t *testing.T) {
	base := RunSpec{Workload: WorkloadRef{Name: "DM3-1600"}, Scheduler: SchedulerRef{Name: "baseline"}}
	over := base
	over.Workload.Width = 800
	n, err := over.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Workload.Width != 800 || n.Workload.Height != 1200 {
		t.Errorf("partial override normalized to %dx%d, want 800x1200", n.Workload.Width, n.Workload.Height)
	}
	hBase, _ := base.Hash()
	hOver, _ := over.Hash()
	if hBase == hOver {
		t.Error("width override did not change the content address")
	}
}

// TestSchedulerParamsApply verifies factories honour their params.
func TestSchedulerParamsApply(t *testing.T) {
	p, err := NewPlanner("afr", json.RawMessage(`{"DriverCyclesPerDraw": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := p.(render.AFR)
	if !ok || a.DriverCyclesPerDraw != 7 {
		t.Errorf("afr params not applied: %+v", p)
	}
	if a.DriverCyclesPerKFrag != render.DefaultAFR().DriverCyclesPerKFrag {
		t.Errorf("unset afr param lost its default: %+v", a)
	}
	p, err = NewPlanner("oovr", json.RawMessage(`{"DisableDHC": true, "TSLThreshold": 0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := p.(core.OOVR)
	if !ok || !v.DisableDHC || v.Middleware.TSLThreshold != 0.9 {
		t.Errorf("oovr params not applied: %+v", p)
	}
	if v.Middleware.TriangleCap != core.NewMiddleware().TriangleCap {
		t.Errorf("unset oovr param lost its default: %+v", v)
	}
}

// TestSingleIsBuiltIn pins that the Section 3 validation vehicle resolves
// wherever package spec is linked, the experiment harness or not: oovrd and
// its fleet workers never link internal/experiments, yet they must run the
// E0 and F18 jobs oovrfigures -dump-spec prints.
func TestSingleIsBuiltIn(t *testing.T) {
	for params, want := range map[string]pipeline.Mode{
		``:                      pipeline.ModeBothSMP,
		`{"Mode":"smp"}`:        pipeline.ModeBothSMP,
		`{"Mode":"sequential"}`: pipeline.ModeBothSequential,
	} {
		p, err := NewPlanner("single", json.RawMessage(params))
		if err != nil {
			t.Fatalf("single %s: %v", params, err)
		}
		if got, ok := p.(render.SingleGPU); !ok || got.Mode != want {
			t.Errorf("single %s resolved to %#v, want mode %v", params, p, want)
		}
	}
	if _, err := NewPlanner("single", json.RawMessage(`{"Mode":"stereo"}`)); err == nil {
		t.Error("single accepted an unknown Mode")
	}
}

// TestPlacementLayouts checks the non-default layouts change the NUMA
// picture: homing all shared data on GPM0 must shift remote traffic
// relative to the striped default.
func TestPlacementLayouts(t *testing.T) {
	base := RunSpec{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "baseline"}, Frames: 1}
	striped, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	home := base
	home.Placement = "gpm0"
	homed, err := home.Run()
	if err != nil {
		t.Fatal(err)
	}
	if striped.RemoteTextureBytes == homed.RemoteTextureBytes {
		t.Errorf("gpm0 layout did not change remote texture traffic (%.0f bytes)", homed.RemoteTextureBytes)
	}
}

// TestResultRoundTrip covers the versioned Result schema.
func TestResultRoundTrip(t *testing.T) {
	s := RunSpec{Workload: WorkloadRef{Name: "WE"}, Scheduler: SchedulerRef{Name: "baseline"}, Frames: 1}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewResult(s, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Errorf("result round trip diverged:\n %+v\nvs\n %+v", res, back)
	}
	b2, _ := back.Encode()
	if !bytes.Equal(b, b2) {
		t.Error("result encoding is not byte-stable across a round trip")
	}
	bad := bytes.Replace(b, []byte(`"schema_version":1`), []byte(`"schema_version":99`), 1)
	if _, err := DecodeResult(bad); err == nil {
		t.Error("unsupported result schema version accepted")
	}
}

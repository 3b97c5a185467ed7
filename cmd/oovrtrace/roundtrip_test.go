package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/render"
	"oovr/internal/scene"
	"oovr/internal/workload"
)

// TestTraceRoundTripDrivesIdenticalSimulation pins the -export/-import
// contract: a trace written by this command and read back must drive a
// byte-identical simulation to the generated scene it came from — the JSON
// codec may not drop or perturb anything the simulator consumes.
func TestTraceRoundTripDrivesIdenticalSimulation(t *testing.T) {
	c, ok := workload.CaseByName("DM3-640")
	if !ok {
		t.Fatal("missing benchmark case DM3-640")
	}
	generated := c.Spec.Generate(c.Width, c.Height, 2, 1)

	var buf bytes.Buffer
	if err := generated.Encode(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	exported := buf.Bytes()
	imported, err := scene.Decode(bytes.NewReader(exported))
	if err != nil {
		t.Fatalf("import: %v", err)
	}

	// The codec must be a fixed point: re-exporting the imported trace
	// yields the same bytes, so traces survive repeated tooling passes.
	var buf2 bytes.Buffer
	if err := imported.Encode(&buf2); err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if !bytes.Equal(exported, buf2.Bytes()) {
		t.Error("re-exported trace differs from the original export")
	}

	// Both a fullmesh and a routed topology, under a locality-aware and a
	// baseline scheduler: the imported scene must reproduce the generated
	// scene's Metrics exactly, link metrics included.
	for _, topoName := range []string{"", "ring"} {
		opt := multigpu.DefaultOptions()
		opt.Config = opt.Config.WithTopology(topoName)
		for _, p := range []driver.Planner{render.Baseline{}, core.NewOOVR()} {
			want := driver.Run(multigpu.New(opt, generated), p)
			got := driver.Run(multigpu.New(opt, imported), p)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("topology %q / %s: imported trace diverged from generated scene\n got %+v\nwant %+v",
					topoName, p.Name(), got, want)
			}
		}
	}
}

// TestSummarizeRejectsEmptyTraces: the decoder accepts a trace with no
// frames and one whose frame 0 has no objects; -import must report either
// as an error, not index into the empty frame.
func TestSummarizeRejectsEmptyTraces(t *testing.T) {
	for _, in := range []string{
		`{"version":1,"name":"x","width":8,"height":8,"textures":[],"frames":[]}`,
		`{"version":1,"name":"x","width":8,"height":8,"textures":[],"frames":[{"objects":[]}]}`,
	} {
		sc, err := scene.Decode(strings.NewReader(in))
		if err != nil {
			t.Fatalf("decode %s: %v", in, err)
		}
		var out bytes.Buffer
		if err := summarize(&out, sc, true); err == nil {
			t.Errorf("summarize accepted %s", in)
		}
	}
}

package scene

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := validScene()
	s.Frames[0].Objects[2].DependsOn = 0
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round trip changed the scene:\nwant %+v\ngot  %+v", s, got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Errorf("garbage accepted")
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	in := `{"version": 99, "name": "x", "width": 1, "height": 1, "textures": [], "frames": []}`
	if _, err := Decode(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version accepted: %v", err)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	in := `{"version": 1, "name": "x", "width": 1, "height": 1, "evil": true}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Errorf("unknown field accepted")
	}
}

func TestDecodeRejectsInvalidScene(t *testing.T) {
	// Structurally valid JSON, semantically broken: texture reference out
	// of range.
	in := `{
		"version": 1, "name": "bad", "width": 640, "height": 480,
		"textures": [{"name": "t", "bytes": 1024}],
		"frames": [{"objects": [{
			"name": "o", "triangles": 10, "vertices": 30,
			"frags_per_view": 100, "bounds": [0,0,10,10], "textures": [7]
		}]}]
	}`
	if _, err := Decode(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "invalid trace") {
		t.Errorf("invalid scene accepted: %v", err)
	}
}

func TestDecodeRejectsNegativeSizeTexture(t *testing.T) {
	in := `{
		"version": 1, "name": "bad", "width": 640, "height": 480,
		"textures": [{"name": "t", "bytes": -5}],
		"frames": []
	}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Errorf("negative texture accepted")
	}
}

func TestEncodeIsStable(t *testing.T) {
	s := validScene()
	var a, b bytes.Buffer
	if err := s.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("Encode is not deterministic")
	}
}

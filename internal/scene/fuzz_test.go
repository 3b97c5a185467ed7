package scene

import (
	"bytes"
	"testing"
)

// FuzzDecodeScene feeds outside bytes to the trace decoder behind
// `oovrtrace -import`. Properties: decoding never panics, and an accepted
// scene's encoding is a fixed point: Encode → Decode → Encode gives the
// same bytes.
//
// The seed corpus in testdata/fuzz/FuzzDecodeScene holds an exported
// DM3-640 frame, a trace with no frames, a trace whose one frame is empty
// and a trace naming an out-of-range texture. Run it longer with
//
//	go test -run '^$' -fuzz FuzzDecodeScene -fuzztime 10s ./internal/scene
func FuzzDecodeScene(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(bytes.NewReader(b))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := s.Encode(&enc); err != nil {
			t.Fatalf("an accepted scene does not encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("an encoded scene does not decode: %v\n%s", err, enc.Bytes())
		}
		var enc2 bytes.Buffer
		if err := again.Encode(&enc2); err != nil {
			t.Fatalf("a re-decoded scene does not encode: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc.Bytes(), enc2.Bytes())
		}
	})
}

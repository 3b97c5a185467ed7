package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

// FuzzDecodeJobBytes feeds outside bytes to the job decoder every oovrd
// endpoint and fleet task goes through. Properties: decoding never panics;
// a decoded job that canonicalizes decodes again from its canonical bytes,
// to a job of the same kind with the same canonical bytes (decode →
// canonical → decode is idempotent); its content address is the plain
// SHA-256 of those canonical bytes, for both job kinds; and it is the same
// before and after the round trip.
//
// The seed corpus in testdata/fuzz/FuzzDecodeJobBytes holds the seven
// RunSpecs `oovrsim -all -dump-spec` prints and one ServiceSpec. Run it
// longer with
//
//	go test -run '^$' -fuzz FuzzDecodeJobBytes -fuzztime 10s ./internal/spec
func FuzzDecodeJobBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		job, err := DecodeJobBytes(b)
		if err != nil {
			return
		}
		_, isRun := job.(RunSpec)
		if _, isService := job.(ServiceSpec); isRun == isService {
			t.Fatalf("decoded job is a %T, want a RunSpec or a ServiceSpec", job)
		}
		canon, err := job.Canonical()
		if err != nil {
			return // decodes but names no resolvable run: rejected later, never hashed
		}
		hash, err := job.Hash()
		if err != nil {
			t.Fatalf("canonical form exists but hash fails: %v", err)
		}
		if sum := sha256.Sum256(canon); hash != hex.EncodeToString(sum[:]) {
			t.Fatalf("content address %s is not the SHA-256 of the canonical bytes\n%s", hash, canon)
		}
		again, err := DecodeJobBytes(canon)
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, canon)
		}
		if _, againRun := again.(RunSpec); againRun != isRun {
			t.Fatalf("canonical bytes changed the job kind:\n%s", canon)
		}
		canon2, err := again.Canonical()
		if err != nil {
			t.Fatalf("canonical bytes do not canonicalize: %v\n%s", err, canon)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonicalization is not idempotent:\n%s\n%s", canon, canon2)
		}
		hash2, err := again.Hash()
		if err != nil {
			t.Fatalf("hash of the round-tripped job: %v", err)
		}
		if hash != hash2 {
			t.Fatalf("hash moved across the round trip: %s != %s\n%s", hash, hash2, canon)
		}
		if h, _ := job.Hash(); h != hash {
			t.Fatalf("hash is not stable across calls: %s != %s", h, hash)
		}
	})
}

// FuzzDecodeResult feeds outside bytes to the Result decoder that reads
// cached results and fleet workers' answers. Properties: decoding never
// panics, and an accepted Result encodes, and those bytes decode to an
// equal Result.
//
// The seed corpus in testdata/fuzz/FuzzDecodeResult holds one encoded
// Result (DM3-640 under OO-VR, two frames); the added seeds spell two
// values Encode writes differently: an empty Links list and scheduler
// params with whitespace and an HTML character. Run it longer with
//
//	go test -run '^$' -fuzz FuzzDecodeResult -fuzztime 10s ./internal/spec
func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte(`{"schema_version":1,"metrics":{"Links":[]}}`))
	f.Add([]byte(`{"schema_version":1,"spec":{"scheduler":{"name":"x","params":{ "a" : "<" }}}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("an accepted Result does not encode: %v", err)
		}
		again, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("an encoded Result does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("Result changed across encode and decode:\n%+v\n%+v", r, again)
		}
	})
}

// FuzzResolveAndRun feeds outside bytes through the whole miss path of a
// RunSpec: decode, Resolve, and, when Resolve accepts the spec, one frame
// of execution. Properties: nothing panics, and the Result encodes, so no
// accepted number can reach a NaN or an infinity. Resolve sees the
// submitted frame count; only the run is cut to one frame.
//
// The seed corpus in testdata/fuzz/FuzzResolveAndRun holds the seven
// RunSpec seeds of FuzzDecodeJobBytes; the added seeds are out-of-domain
// numbers that once resolved. Run it longer with
//
//	go test -run '^$' -fuzz FuzzResolveAndRun -fuzztime 10s ./internal/spec
func FuzzResolveAndRun(f *testing.F) {
	const inline = `"inline":{"Abbr":"HUGE","Draws":191,"MeanTriangles":1e300,"TriSigma":1.6,"Overdraw":2.6,` +
		`"TextureCount":60,"MeanTextureKB":640,"PrivateTexKB":512,"TexSigma":0.9,"Clusters":12,` +
		`"TexturesPerObject":2.0,"CommonTextureFrac":0.35,"DependencyFrac":0.06}`
	for _, s := range []string{
		`{"workload":{"name":"DM3-640"},"scheduler":{"name":"oovr"},"hardware":{"Config":{"ClockGHz":1e-320}}}`,
		`{"workload":{"name":"DM3-640"},"scheduler":{"name":"oovr"},"hardware":{"Config":{"Topology":"hierarchical","TopologyTrunkGBs":1e-320}}}`,
		`{"workload":{"name":"huge","width":640,"height":480,` + inline + `},"scheduler":{"name":"oovr"}}`,
		`{"workload":{"name":"DM3-640"},"scheduler":{"name":"oovr"},"frames":1000000000}`,
		`{"workload":{"name":"DM3-640"},"scheduler":{"name":"oovr"},"hardware":{"Config":{"NumGPMs":4096}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		job, err := DecodeJobBytes(b)
		rs, ok := job.(RunSpec)
		if err != nil || !ok {
			return
		}
		r, err := rs.Resolve()
		if err != nil {
			return
		}
		r.Spec.Frames = 1
		res, err := NewResult(r.Spec, r.Execute())
		if err != nil {
			t.Fatalf("an executed spec has no Result: %v", err)
		}
		if _, err := res.Encode(); err != nil {
			t.Fatalf("the Result of an accepted spec does not encode: %v\n%s", err, b)
		}
	})
}

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

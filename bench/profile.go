package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileShares decodes a runtime/pprof CPU profile and returns the
// cpu.<bucket> self-time shares and the cum.<name> cumulative shares, in
// percent of all samples. A profile without samples yields all zeros.
func profileShares(gz []byte) (map[string]float64, error) {
	stacks, err := decodeProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	var total float64
	for _, s := range stacks {
		total += s.value
		out["cpu."+bucketOf(s.funcs)] += s.value
		for _, c := range cumFuncs {
			if onStack(s.funcs, c.funcs) {
				out["cum."+c.name] += s.value
			}
		}
	}
	if total > 0 {
		for k := range out {
			out[k] *= 100 / total
		}
	}
	return out, nil
}

func onStack(stack, funcs []string) bool {
	for _, f := range stack {
		for _, g := range funcs {
			if f == g {
				return true
			}
		}
	}
	return false
}

// bucketOf attributes a sample's self time: the first frame from the leaf
// that classifies decides. Runtime helpers that are not garbage collection
// or allocation (memmove, map access, hashing) thus count for the package
// that called them; stacks nothing classifies (the scheduler idling) are
// "other".
func bucketOf(stack []string) string {
	for _, f := range stack {
		if b := classify(f); b != "" {
			return b
		}
	}
	return "other"
}

// gcMarkers identify garbage-collection and allocation work in runtime
// function names.
var gcMarkers = []string{
	"gc", "GC", "malloc", "memclr", "mheap", "mcache", "mcentral", "mspan",
	"sweep", "scanobject", "scanblock", "scanstack", "greyobject", "markroot",
	"findObject", "newobject", "makeslice", "growslice", "makemap", "heapBits",
	"heapSetType", "wbBuf", "bulkBarrier", "typePointers", "pageAlloc",
	"nextFreeFast", "markBits",
}

// classify maps one function name to its bucket, or "" when the name
// alone does not decide.
func classify(fn string) string {
	switch {
	case strings.HasPrefix(fn, "oovr/internal/"):
		rest := fn[len("oovr/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "oovr/bench."):
		// The benchmark is package main, named by its import path in tests.
		return "bench"
	case strings.HasPrefix(fn, "runtime."):
		for _, m := range gcMarkers {
			if strings.Contains(fn, m) {
				return "gc"
			}
		}
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "crypto/sha256.") || strings.HasPrefix(fn, "crypto/internal/fips140/sha256."):
		return "sha256"
	case strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/") ||
		strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/poll."):
		return "net"
	}
	return ""
}

// stack is one profile sample: its function names from the leaf outwards
// (inlined calls expanded) and its CPU time.
type stack struct {
	funcs []string
	value float64
}

// decodeProfile reads the samples of a gzipped profile.proto, the format
// runtime/pprof writes. Only the fields the shares need are decoded.
func decodeProfile(gz []byte) ([]stack, error) {
	if len(gz) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	err = fields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.values, err = appendVarints(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i := funcNames[fid]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{value: float64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, fid := range locFuncs[l] {
				st.funcs = append(st.funcs, name(fid))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks the fields of one protobuf message. fn gets each field's
// number and either its varint value (wire type 0) or its bytes (wire type
// 2); fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value, or a
// packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst, nil
}

package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"oovr/internal/mem.(*System).access":               "mem",
		"oovr/internal/multigpu.New":                       "multigpu",
		"oovr/internal/workload.Spec.Generate.func1":       "workload",
		"oovr/internal/obs.(*Tracer).Emit":                 "obs",
		"main.(*oovrdBench).loop":                          "bench",
		"runtime.mallocgc":                                 "gc",
		"runtime.gcBgMarkWorker":                           "gc",
		"runtime.scanobject":                               "gc",
		"runtime.memclrNoHeapPointers":                     "gc",
		"runtime.growslice":                                "gc",
		"runtime.(*mheap).alloc":                           "gc",
		"encoding/json.(*encodeState).marshal":             "json",
		"crypto/sha256.(*Digest).Write":                    "sha256",
		"crypto/internal/fips140/sha256.blockAVX2":         "sha256",
		"net/http.(*conn).serve":                           "net",
		"net.(*conn).Read":                                 "net",
		"internal/poll.(*FD).Write":                        "net",
		"syscall.Syscall6":                                 "net",
		"runtime.memmove":                                  "",
		"runtime.mapaccess2_faststr":                       "",
		"runtime.futex":                                    "",
		"sort.Slice":                                       "",
		"bufio.(*Reader).Read":                             "",
		"oovr/internal/spec.RunSpec.Hash":                  "spec",
		"oovr/internal/service.(*Cell).Step":               "service",
		"oovr/internal/experiments.F4Bandwidth.func1":      "experiments",
		"oovr/internal/fleet.(*Coordinator).ServeHTTP":     "fleet",
		"oovr/internal/server.(*Server).resolveAndExecute": "server",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketOfWalksToTheFirstClassifiedFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// A runtime helper counts for its caller...
		{[]string{"runtime.memmove", "oovr/internal/mem.(*System).flow", "main.main"}, "mem"},
		{[]string{"runtime.mapaccess2_faststr", "encoding/json.typeFields", "oovr/internal/spec.RunSpec.Hash"}, "json"},
		// ...but allocation and collection are their own bucket.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "oovr/internal/mem.New"}, "gc"},
		{[]string{"bufio.(*Reader).fill", "net/http.(*conn).serve"}, "net"},
		// Nothing classifies: the scheduler idling.
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestProfileSharesOfARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += shares["cpu."+b]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("cpu shares sum to %v, want 100 (%v)", sum, shares)
	}
	if shares["cpu.bench"] < 50 {
		t.Errorf("cpu.bench = %v%%, want most of a profile spent in spin", shares["cpu.bench"])
	}
	for k := range shares {
		if !knownMetric(k) {
			t.Errorf("profileShares produced %q, which is not a per-layer metric", k)
		}
	}
}

func knownMetric(name string) bool {
	for _, d := range perLayer() {
		if d.name == name {
			return true
		}
	}
	return false
}

func TestProfileSharesOfNothing(t *testing.T) {
	shares, err := profileShares(nil)
	if err != nil || len(shares) != 0 {
		t.Fatalf("profileShares(nil) = %v, %v", shares, err)
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// unitOut is one completed unit of work and the digest of its output.
type unitOut struct {
	key, digest string
}

// recorder collects one pass's measurements and checks. It is safe for
// concurrent use by a workload's load goroutines.
type recorder struct {
	pins map[string]string // unit key → pinned digest; nil when unpinned
	// ref, when set, makes pause time reference slices (hostref.go).
	ref *hostRef

	mu           sync.Mutex
	refSlices    int           // reference slices timed, one collection each
	refCompute   time.Duration // their compute parts
	refNet       time.Duration // their loopback parts
	refSpent     time.Duration // wall time inside pause
	ops          int64         // requested operations completed
	failed       int64         // operations whose output or response was wrong
	checks       int64         // cross-path checks outside the operations
	checksFailed int64         // checks that found a mismatch
	frames       int64         // simulated frames
	lat          []float64     // per-operation latency, ms
	units        []unitOut     // completed outputs, in completion order
	notes        []string      // the first failures, for stderr
}

func newRecorder(pins map[string]string) *recorder {
	return &recorder{pins: pins}
}

// digest is the hex sha256 that expected.json pins.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// latency records one operation's round trip.
func (r *recorder) latency(start, end time.Time) {
	r.mu.Lock()
	r.lat = append(r.lat, float64(end.Sub(start))/float64(time.Millisecond))
	r.mu.Unlock()
}

// done counts n completed operations.
func (r *recorder) done(n int64) {
	r.mu.Lock()
	r.ops += n
	r.mu.Unlock()
}

func (r *recorder) addFrames(n int64) {
	r.mu.Lock()
	r.frames += n
	r.mu.Unlock()
}

// output records a unit's output and checks it against its pin; a mismatch
// fails the n operations that produced it (at least one).
func (r *recorder) output(key string, out []byte, n int64) {
	d := digest(out)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.units = append(r.units, unitOut{key, d})
	if r.pins == nil {
		return
	}
	n = max(n, 1)
	if want, ok := r.pins[key]; !ok {
		r.failLocked(n, "%s: no pinned digest", key)
	} else if want != d {
		r.failLocked(n, "%s: digest %.12s…, pinned %.12s…", key, d, want)
	}
}

// digestOf returns the digest last recorded for key, or "".
func (r *recorder) digestOf(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.units) - 1; i >= 0; i-- {
		if r.units[i].key == key {
			return r.units[i].digest
		}
	}
	return ""
}

// fail counts n failed operations.
func (r *recorder) fail(n int64, format string, args ...any) {
	r.mu.Lock()
	r.failLocked(n, format, args...)
	r.mu.Unlock()
}

func (r *recorder) failLocked(n int64, format string, args ...any) {
	r.failed += n
	r.note(format, args...)
}

// check records one cross-path check.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	r.checks++
	if !ok {
		r.checksFailed++
		r.note(format, args...)
	}
	r.mu.Unlock()
}

func (r *recorder) note(format string, args ...any) {
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// attempted and failures are the totals the result line reports.
func (r *recorder) attempted() int64 { return r.ops + r.checks }
func (r *recorder) failures() int64  { return r.failed + r.checksFailed }

// sameOutputs checks that two passes of one workload produced the same
// output for every unit both completed.
func sameOutputs(a, b *recorder) bool {
	seen := map[string]string{}
	for _, u := range a.units {
		seen[u.key] = u.digest
	}
	for _, u := range b.units {
		if d, ok := seen[u.key]; ok && d != u.digest {
			return false
		}
	}
	return true
}

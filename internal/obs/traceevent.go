package obs

// traceevent.go encodes a Timeline as Chrome trace-event JSON, the
// format Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
// Each lane's Proc becomes a trace process, each lane a thread within
// it; spans become "X" complete events, instants "i" markers, with
// timestamps in microseconds (ticks / TicksPerUs).
//
// The encoding is deliberately byte-stable: events are emitted in
// recording order, strings go through encoding/json (so `<`, `>`, `&`
// are HTML-escaped exactly as a json.RawMessage round-trip would
// re-escape them), floats use the shortest strconv form, and no
// whitespace or trailing newline is emitted. The result survives being
// embedded as a json.RawMessage in a Result (marshal + unmarshal)
// byte-identically, which is what lets one golden fingerprint pin
// serial, parallel, and fleet execution.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
)

// teEncoder accumulates compact trace-event JSON.
type teEncoder struct {
	b []byte
	n int // events emitted, for comma placement
}

func (e *teEncoder) next() {
	if e.n > 0 {
		e.b = append(e.b, ',')
	}
	e.n++
}

func (e *teEncoder) str(s string) {
	e.b, _ = appendJSON(e.b, s)
}

// appendJSON appends v's compact JSON encoding to b.
func appendJSON(b []byte, v any) ([]byte, error) {
	enc, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
}

func (e *teEncoder) i64(v int64) {
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *teEncoder) f64(v float64) {
	e.b = strconv.AppendFloat(e.b, v, 'g', -1, 64)
}

// meta emits one "M" metadata event naming a process or thread.
func (e *teEncoder) meta(kind string, pid, tid int, name string) {
	e.next()
	e.b = append(e.b, `{"ph":"M","pid":`...)
	e.i64(int64(pid))
	if tid > 0 {
		e.b = append(e.b, `,"tid":`...)
		e.i64(int64(tid))
	}
	e.b = append(e.b, `,"name":`...)
	e.str(kind)
	e.b = append(e.b, `,"args":{"name":`...)
	e.str(name)
	e.b = append(e.b, `}}`...)
}

func (e *teEncoder) args(a, b Arg) {
	if a.K == "" && b.K == "" {
		return
	}
	e.b = append(e.b, `,"args":{`...)
	first := true
	for _, arg := range [2]Arg{a, b} {
		if arg.K == "" {
			continue
		}
		if !first {
			e.b = append(e.b, ',')
		}
		first = false
		e.str(arg.K)
		e.b = append(e.b, ':')
		e.i64(arg.V)
	}
	e.b = append(e.b, '}')
}

// EncodeTraceEvents renders the timeline as a complete trace-event JSON
// document: {"traceEvents":[...]}. A nil timeline encodes as an empty
// event list. The output is compact and byte-deterministic; see the
// file comment for the stability rules.
func (t *Timeline) EncodeTraceEvents() []byte {
	enc := &teEncoder{b: make([]byte, 0, 1<<16)}
	enc.b = append(enc.b, `{"traceEvents":[`...)
	if t != nil {
		// Assign pids per unique Proc in first-seen lane order, tids per
		// lane within its process — both 1-based, both deterministic.
		pids := make(map[string]int, len(t.lanes))
		tids := make([]int, len(t.lanes))
		lanePid := make([]int, len(t.lanes))
		perProc := make(map[string]int, len(t.lanes))
		for i, ln := range t.lanes {
			pid, ok := pids[ln.Proc]
			if !ok {
				pid = len(pids) + 1
				pids[ln.Proc] = pid
				enc.meta("process_name", pid, 0, ln.Proc)
			}
			perProc[ln.Proc]++
			lanePid[i] = pid
			tids[i] = perProc[ln.Proc]
			enc.meta("thread_name", pid, tids[i], ln.Name)
		}
		for _, e := range t.Events() {
			ln := t.lanes[e.Lane]
			ts := float64(e.Start) / ln.TicksPerUs
			enc.next()
			if e.Kind == KindSpan {
				dur := float64(e.End-e.Start) / ln.TicksPerUs
				if dur < 0 {
					dur = 0
				}
				enc.b = append(enc.b, `{"ph":"X","pid":`...)
				enc.i64(int64(lanePid[e.Lane]))
				enc.b = append(enc.b, `,"tid":`...)
				enc.i64(int64(tids[e.Lane]))
				enc.b = append(enc.b, `,"ts":`...)
				enc.f64(ts)
				enc.b = append(enc.b, `,"dur":`...)
				enc.f64(dur)
				enc.b = append(enc.b, `,"name":`...)
				enc.str(e.Name)
				enc.args(e.A, e.B)
				enc.b = append(enc.b, '}')
				continue
			}
			enc.b = append(enc.b, `{"ph":"i","pid":`...)
			enc.i64(int64(lanePid[e.Lane]))
			enc.b = append(enc.b, `,"tid":`...)
			enc.i64(int64(tids[e.Lane]))
			enc.b = append(enc.b, `,"ts":`...)
			enc.f64(ts)
			enc.b = append(enc.b, `,"s":"t","name":`...)
			enc.str(e.Name)
			enc.args(e.A, Arg{})
			enc.b = append(enc.b, '}')
		}
	}
	enc.b = append(enc.b, `]}`...)
	return enc.b
}

// Fingerprint returns the hex SHA-256 of the trace-event encoding —
// the value golden timeline tests pin.
func (t *Timeline) Fingerprint() string {
	sum := sha256.Sum256(t.EncodeTraceEvents())
	return hex.EncodeToString(sum[:])
}

package fleet

import (
	"sync/atomic"
	"time"

	"oovr/internal/obs"
)

// TimelineEvent is one entry in the coordinator's flight record: a bounded
// in-memory ring of lease-lifecycle events, served by GET /fleet/timeline.
// The record answers the operator question the counters cannot — not "how
// many leases expired" but "what happened to THIS spec": submit → lease → renew…
// → expire → lease (retry) → speculate → complete, per content address.
type TimelineEvent struct {
	// Seq orders events totally (the ring drops old events; gaps in Seq
	// reveal how many).
	Seq int64 `json:"seq"`
	// TMs is milliseconds since the coordinator started.
	TMs int64 `json:"t_ms"`
	// Kind is one of: submit, lease, speculate, renew, expire, retry,
	// quarantine, complete, duplicate, corrupt.
	Kind    string `json:"kind"`
	Hash    string `json:"hash,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Lease   int64  `json:"lease,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// timelineCap bounds the flight record; the ring overwrites oldest-first
// so a long-lived coordinator keeps the recent past, not the whole run.
const timelineCap = 4096

// record appends one event to the flight record. Called with mu held.
func (c *Coordinator) record(kind, hash, worker string, lease int64, attempt int, detail string) {
	now := c.opt.now()
	c.evSeq++
	ev := TimelineEvent{
		Seq:     c.evSeq,
		TMs:     now.Sub(c.start).Milliseconds(),
		Kind:    kind,
		Hash:    hash,
		Worker:  worker,
		Lease:   lease,
		Attempt: attempt,
		Detail:  detail,
	}
	if len(c.events) < timelineCap {
		c.events = append(c.events, ev)
	} else {
		c.events[c.evNext] = ev
		c.evNext = (c.evNext + 1) % timelineCap
	}
}

// touchWorker notes contact from a named worker for the health gauges.
// Called with mu held.
func (c *Coordinator) touchWorker(name string) {
	if name == "" {
		return
	}
	c.workers[name] = c.opt.now()
}

// Timeline returns the recorded events in sequence order, oldest first.
// A non-empty hash keeps only that spec's events; a positive limit keeps
// only the newest limit events (after filtering).
func (c *Coordinator) Timeline(hash string, limit int) []TimelineEvent {
	c.mu.Lock()
	var snap []TimelineEvent
	if len(c.events) < timelineCap {
		snap = append(snap, c.events...)
	} else {
		snap = append(snap, c.events[c.evNext:]...)
		snap = append(snap, c.events[:c.evNext]...)
	}
	c.mu.Unlock()

	out := snap[:0]
	for _, ev := range snap {
		if hash == "" || ev.Hash == hash {
			out = append(out, ev)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// RegisterMetrics publishes the coordinator's counters, queue gauges and
// per-worker health gauges in m. The counters already live under the
// coordinator mutex, so they expose as functions sampled at scrape time.
func (c *Coordinator) RegisterMetrics(m *obs.Registry) {
	cnt := func(name, help string, f func(Counters) int64) {
		m.NewCounterFunc(name, help, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(f(c.counters))
		})
	}
	cnt("oovr_fleet_submitted_total", "Tasks created.",
		func(n Counters) int64 { return n.Submitted })
	cnt("oovr_fleet_deduped_total", "Submissions answered by a known content address.",
		func(n Counters) int64 { return n.Deduped })
	cnt("oovr_fleet_dispatched_total", "Leases granted.",
		func(n Counters) int64 { return n.Dispatched })
	cnt("oovr_fleet_speculative_total", "Straggling tasks re-issued to a second worker.",
		func(n Counters) int64 { return n.Speculative })
	cnt("oovr_fleet_expirations_total", "Leases reaped by TTL.",
		func(n Counters) int64 { return n.Expirations })
	cnt("oovr_fleet_retries_total", "Failed attempts re-queued within the budget.",
		func(n Counters) int64 { return n.Retries })
	cnt("oovr_fleet_completed_total", "Results accepted.",
		func(n Counters) int64 { return n.Completed })
	cnt("oovr_fleet_duplicates_total", "Valid Results dropped as already answered.",
		func(n Counters) int64 { return n.Duplicates })
	cnt("oovr_fleet_corrupt_total", "Posted bodies that failed an integrity check.",
		func(n Counters) int64 { return n.Corrupt })
	cnt("oovr_fleet_stale_reports_total", "Failure reports carrying a dead lease.",
		func(n Counters) int64 { return n.StaleReports })
	cnt("oovr_fleet_quarantined_total", "Tasks permanently failed.",
		func(n Counters) int64 { return n.Quarantined })

	gauge := func(name, help string, st taskState) {
		m.NewGaugeFunc(name, help, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, t := range c.tasks {
				if t.state == st {
					n++
				}
			}
			return float64(n)
		})
	}
	gauge("oovr_fleet_pending", "Tasks queued for dispatch.", taskPending)
	gauge("oovr_fleet_leased", "Tasks currently leased.", taskLeased)
	gauge("oovr_fleet_done", "Tasks resolved to an accepted Result.", taskDone)
	gauge("oovr_fleet_quarantined", "Tasks currently quarantined.", taskQuarantined)
	m.NewGaugeFunc("oovr_fleet_sweeps", "Sweeps submitted.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.sweeps))
	})

	// Per-worker health refreshes at scrape time: a worker's live lease
	// count and how long since it last contacted the coordinator. A worker
	// that crashed shows its last_seen age growing while its leases drain
	// to zero by TTL.
	liveLeases := m.NewGaugeVec("oovr_fleet_worker_live_leases",
		"Live leases held, per worker.", "worker")
	lastSeen := m.NewGaugeVec("oovr_fleet_worker_last_seen_seconds",
		"Seconds since the worker last contacted the coordinator.", "worker")
	m.AddHook(func() {
		c.mu.Lock()
		now := c.opt.now()
		held := map[string]int{}
		for _, l := range c.leases {
			held[l.worker]++
		}
		type wh struct {
			name  string
			age   time.Duration
			count int
		}
		ws := make([]wh, 0, len(c.workers))
		for name, seen := range c.workers {
			ws = append(ws, wh{name: name, age: now.Sub(seen), count: held[name]})
		}
		c.mu.Unlock()
		for _, w := range ws {
			liveLeases.With(w.name).Set(float64(w.count))
			lastSeen.With(w.name).Set(w.age.Seconds())
		}
	})
}

// RegisterMetrics publishes the worker's pull-loop counters in m, read
// from the same atomics Stats exposes.
func (w *Worker) RegisterMetrics(m *obs.Registry) {
	cnt := func(name, help string, v *atomic.Int64) {
		m.NewCounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	cnt("oovr_worker_leases_total", "Grants accepted.", &w.Stats.Leases)
	cnt("oovr_worker_completed_total", "Results delivered and accepted.", &w.Stats.Completed)
	cnt("oovr_worker_failed_total", "Executions that failed.", &w.Stats.Failed)
	cnt("oovr_worker_rejected_total", "Results the coordinator did not accept.", &w.Stats.Rejected)
	cnt("oovr_worker_chaos_crashes_total", "Injected crashes.", &w.Stats.Crashes)
	cnt("oovr_worker_chaos_stalls_total", "Injected stalls.", &w.Stats.Stalls)
	cnt("oovr_worker_chaos_corrupts_total", "Injected result corruptions.", &w.Stats.Corrupts)
	cnt("oovr_worker_rpc_retries_total", "Coordinator RPCs re-sent after backoff.", &w.Stats.RPCRetries)
	cnt("oovr_worker_idle_sleeps_total", "Empty-queue polls that slept.", &w.Stats.IdleSleeps)
}

// Package fleet turns oovrd into a fault-tolerant coordinator/worker
// fleet: a Coordinator owns a lease-based queue of content-addressed
// RunSpecs, Workers pull leased specs over HTTP, execute them through the
// job server's single-flight cache, and post canonical Results back.
//
// Robustness is the design center, not an afterthought:
//
//   - every dispatch is a lease with a TTL; workers renew it by heartbeat
//     and an expired lease re-queues the spec, so a crashed or wedged
//     worker costs one TTL, never the sweep;
//   - reported execution failures consume a bounded per-spec retry budget
//     and re-dispatch with exponential backoff; resolve (input) failures
//     quarantine immediately — a bad spec is never retried;
//   - a task leased past the straggler threshold (while still heartbeating)
//     is speculatively re-issued to a second worker; the first valid
//     Result wins and later arrivals are dropped as duplicates, keyed by
//     spec hash;
//   - a posted Result is only accepted after integrity checks: it must
//     decode, its embedded spec must re-hash to its claimed content
//     address, and that address must name a known task. A valid Result
//     from an expired lease still wins — slow work is not wasted work;
//   - workers carry a deterministic fault-injection layer (Chaos) so all
//     of the above is exercised by tests rather than trusted.
//
// The Coordinator is an http.Handler serving under /fleet/ (see http.go
// for the wire protocol) and is mounted by cmd/oovrd next to the job
// server; Worker and Client are its two HTTP peers.
package fleet

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"oovr/internal/service"
	"oovr/internal/spec"
)

// CoordinatorOptions tune the failure policy. The defaults suit real
// workers on a LAN; tests shrink the durations to keep chaos fast.
type CoordinatorOptions struct {
	// LeaseTTL is how long a dispatched spec stays owned by a worker
	// without a heartbeat before it re-queues (default 15s).
	LeaseTTL time.Duration
	// MaxAttempts is the per-spec retry budget: a spec whose execution
	// fails (or returns a corrupt Result) this many times is quarantined
	// (default 4). Lease expirations do not consume the budget — they
	// indict the worker, not the spec.
	MaxAttempts int
	// RetryDelay is the base of the exponential re-dispatch backoff after
	// a failed attempt (default 100ms), capped at MaxRetryDelay (default
	// 5s).
	RetryDelay    time.Duration
	MaxRetryDelay time.Duration
	// StragglerAfter is how long a spec may stay leased — heartbeats and
	// all — before the coordinator speculatively re-issues it to a second
	// worker (default 4×LeaseTTL). At most two leases are ever live per
	// spec, and never two on the same worker.
	StragglerAfter time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

func (o CoordinatorOptions) defaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.RetryDelay <= 0 {
		o.RetryDelay = 100 * time.Millisecond
	}
	if o.MaxRetryDelay <= 0 {
		o.MaxRetryDelay = 5 * time.Second
	}
	if o.StragglerAfter <= 0 {
		o.StragglerAfter = 4 * o.LeaseTTL
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

type taskState int

const (
	taskPending taskState = iota
	taskLeased
	taskDone
	taskQuarantined
)

// task is one content-addressed unit of work. Tasks are keyed (and
// deduplicated, across sweeps) by the spec's content address, so the same
// configuration submitted twice — or racing speculative executions of one
// spec — resolve to a single stored Result.
type task struct {
	hash  string
	spec  json.RawMessage // canonical encoding; what workers receive
	state taskState

	attempts   int            // failed executions charged to the retry budget
	notBefore  time.Time      // re-dispatch backoff gate
	dispatched time.Time      // first lease of the current incarnation
	leases     map[int64]bool // live lease ids

	result  json.RawMessage // accepted canonical Result (taskDone)
	failure string          // quarantine reason (taskQuarantined)
}

// leaseRec is the coordinator's side of one granted lease.
type leaseRec struct {
	hash     string
	worker   string
	deadline time.Time
}

// Counters are the coordinator's monotonic event counts, served by
// /fleet/status next to the live queue gauges.
type Counters struct {
	// Submitted counts tasks created; Deduped counts submissions answered
	// by an already-known content address.
	Submitted int64 `json:"submitted"`
	Deduped   int64 `json:"deduped"`
	// Dispatched counts granted leases; Speculative the subset that
	// re-issued a straggling task to a second worker.
	Dispatched  int64 `json:"dispatched"`
	Speculative int64 `json:"speculative"`
	// Expirations counts leases reaped by TTL; each re-queues its task
	// unless another lease (or a Result) still covers it.
	Expirations int64 `json:"expirations"`
	// Retries counts failed attempts that re-queued within the budget.
	Retries int64 `json:"retries"`
	// Completed counts accepted Results; Duplicates the valid Results
	// dropped because their task was already done; Corrupt the posted
	// bodies that failed an integrity check; StaleReports the failure
	// reports carrying a dead lease (dropped — only live attempts charge
	// the budget).
	Completed    int64 `json:"completed"`
	Duplicates   int64 `json:"duplicates"`
	Corrupt      int64 `json:"corrupt"`
	StaleReports int64 `json:"stale_reports"`
	// Quarantined counts tasks permanently failed (bad spec, exhausted
	// budget).
	Quarantined int64 `json:"quarantined"`
}

// Status is the /fleet/status document: the counters plus live gauges.
type Status struct {
	Counters
	Pending     int  `json:"pending"`
	Leased      int  `json:"leased"`
	Done        int  `json:"done"`
	Quarantined int  `json:"quarantined_now"`
	Sweeps      int  `json:"sweeps"`
	Draining    bool `json:"draining"`
}

// Coordinator owns the lease-based work queue. All state sits under one
// mutex; every entry point re-reaps expired leases first, so liveness
// needs no background timer — any worker poll, heartbeat or status probe
// advances the failure bookkeeping.
type Coordinator struct {
	opt   CoordinatorOptions
	start time.Time

	mu        sync.Mutex
	tasks     map[string]*task
	queue     []string // pending hashes, FIFO
	leases    map[int64]*leaseRec
	sweeps    map[string][]string
	nextLease int64
	nextSweep int64
	counters  Counters
	draining  bool

	// The flight record (timeline.go): a bounded ring of lease-lifecycle
	// events, plus last-contact times per worker for the health gauges.
	events  []TimelineEvent
	evNext  int
	evSeq   int64
	workers map[string]time.Time
}

// NewCoordinator returns an empty coordinator ready to mount.
func NewCoordinator(opt CoordinatorOptions) *Coordinator {
	opt = opt.defaults()
	return &Coordinator{
		opt:     opt,
		start:   opt.now(),
		tasks:   map[string]*task{},
		leases:  map[int64]*leaseRec{},
		sweeps:  map[string][]string{},
		workers: map[string]time.Time{},
	}
}

// Drain stops granting leases; in-flight leases may still renew, complete
// and fail so running workers finish cleanly. cmd/oovrd calls it on
// SIGTERM before shutting the listener down.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Submit registers a sweep of RunSpecs — the common matrix case. It wraps
// SubmitJobs, which also carries service cells.
func (c *Coordinator) Submit(specs []spec.RunSpec) (id string, total int, err error) {
	return c.SubmitJobs(spec.Jobs(specs))
}

// SubmitJobs registers a sweep: one task per job (a RunSpec or a
// single-cell ServiceSpec), deduplicated by content address against
// everything the coordinator has ever seen. A job that cannot even be
// hashed (e.g. an unknown workload name) is quarantined at submission, so
// Collect reports it in place like a /batch error element. The returned id
// names the sweep for Collect.
func (c *Coordinator) SubmitJobs(jobs []spec.Job) (id string, total int, err error) {
	if len(jobs) == 0 {
		return "", 0, fmt.Errorf("fleet: empty sweep")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSweep++
	id = fmt.Sprintf("s%d", c.nextSweep)
	order := make([]string, 0, len(jobs))
	for i, j := range jobs {
		hash, herr := j.Hash()
		if herr != nil {
			key := fmt.Sprintf("!%s/%d", id, i)
			c.tasks[key] = &task{hash: key, state: taskQuarantined, failure: herr.Error()}
			c.counters.Submitted++
			c.counters.Quarantined++
			c.record("quarantine", key, "", 0, 0, herr.Error())
			order = append(order, key)
			continue
		}
		if _, ok := c.tasks[hash]; ok {
			// Known address: done, queued or in flight — either way the
			// sweep just references it.
			c.counters.Deduped++
			order = append(order, hash)
			continue
		}
		canon, cerr := j.Canonical()
		if cerr != nil {
			return "", 0, cerr // unreachable once Hash succeeded
		}
		c.tasks[hash] = &task{hash: hash, spec: canon, state: taskPending, leases: map[int64]bool{}}
		c.queue = append(c.queue, hash)
		c.counters.Submitted++
		c.record("submit", hash, "", 0, 0, "")
		order = append(order, hash)
	}
	c.sweeps[id] = order
	return id, len(order), nil
}

// Grant is one dispatched lease: the spec to execute and the contract to
// honor (renew before TTLMs elapses, post the Result with this lease id).
type Grant struct {
	Lease   int64           `json:"lease"`
	Hash    string          `json:"hash"`
	Attempt int             `json:"attempt"`
	TTLMs   int64           `json:"ttl_ms"`
	Spec    json.RawMessage `json:"spec"`
}

// ErrDraining reports a coordinator that has stopped granting leases.
var ErrDraining = fmt.Errorf("fleet: coordinator draining")

// Lease grants the requesting worker a unit of work, or nil when nothing
// is dispatchable. Queue order wins; with the queue empty, a straggling
// leased task may be speculatively re-issued — never to the worker already
// holding it.
func (c *Coordinator) Lease(worker string) (*Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.now()
	c.reap(now)
	c.touchWorker(worker)
	if c.draining {
		return nil, ErrDraining
	}

	t := c.popPending(now)
	speculative := false
	if t == nil {
		t = c.straggler(now, worker)
		speculative = t != nil
	}
	if t == nil {
		return nil, nil
	}

	c.nextLease++
	id := c.nextLease
	if t.state == taskPending {
		t.state = taskLeased
		t.dispatched = now
	}
	t.leases[id] = true
	c.leases[id] = &leaseRec{hash: t.hash, worker: worker, deadline: now.Add(c.opt.LeaseTTL)}
	c.counters.Dispatched++
	if speculative {
		c.counters.Speculative++
		c.record("speculate", t.hash, worker, id, t.attempts, "")
	} else {
		c.record("lease", t.hash, worker, id, t.attempts, "")
	}
	return &Grant{
		Lease:   id,
		Hash:    t.hash,
		Attempt: t.attempts,
		TTLMs:   c.opt.LeaseTTL.Milliseconds(),
		Spec:    t.spec,
	}, nil
}

// popPending removes and returns the first dispatchable queue entry:
// still pending and past its backoff gate. Entries answered by a late
// Result while queued are dropped in passing; backoff-gated ones keep
// their position. Called with mu held.
func (c *Coordinator) popPending(now time.Time) *task {
	kept := c.queue[:0]
	var pick *task
	for _, hash := range c.queue {
		t := c.tasks[hash]
		if t.state != taskPending {
			continue // stale entry: completed or quarantined while queued
		}
		if pick == nil && !now.Before(t.notBefore) {
			pick = t
			continue
		}
		kept = append(kept, hash)
	}
	c.queue = kept
	return pick
}

// straggler picks the oldest leased task past the straggler threshold
// with a single live lease held by a different worker (ties broken by
// hash for determinism). Called with mu held.
func (c *Coordinator) straggler(now time.Time, worker string) *task {
	var pick *task
	for _, t := range c.tasks {
		if t.state != taskLeased || len(t.leases) != 1 {
			continue
		}
		if now.Sub(t.dispatched) < c.opt.StragglerAfter {
			continue
		}
		sameWorker := false
		for id := range t.leases {
			sameWorker = c.leases[id].worker == worker
		}
		if sameWorker {
			continue
		}
		if pick == nil || t.dispatched.Before(pick.dispatched) ||
			(t.dispatched.Equal(pick.dispatched) && t.hash < pick.hash) {
			pick = t
		}
	}
	return pick
}

// ErrLeaseGone reports a heartbeat for a lease the coordinator no longer
// honors: expired, superseded by an accepted Result, or never granted.
var ErrLeaseGone = fmt.Errorf("fleet: lease gone")

// Renew extends a live lease by one TTL.
func (c *Coordinator) Renew(leaseID int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.now()
	c.reap(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrLeaseGone
	}
	l.deadline = now.Add(c.opt.LeaseTTL)
	c.touchWorker(l.worker)
	c.record("renew", l.hash, l.worker, leaseID, 0, "")
	return nil
}

// Complete offers a Result for acceptance. The lease id is advisory — a
// valid Result wins even when its lease has expired (slow work is not
// wasted work) and loses only to an earlier Result for the same address
// (reported as a duplicate, not an error). Integrity gate: the body must
// decode as a Result, its embedded spec must re-hash to its claimed
// SpecHash, and that address must name a known task. A body failing the
// gate is charged to the retry budget of the leased task (when the lease
// is live) exactly like a reported execution failure.
func (c *Coordinator) Complete(leaseID int64, body []byte) (accepted bool, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.now()
	c.reap(now)

	worker := ""
	if l, ok := c.leases[leaseID]; ok {
		worker = l.worker
		c.touchWorker(worker)
	}
	hash, _, ierr := verify(body)
	if ierr != nil {
		c.counters.Corrupt++
		c.record("corrupt", "", worker, leaseID, 0, ierr.Error())
		if l, ok := c.leases[leaseID]; ok {
			c.failLocked(l.hash, leaseID, false, fmt.Sprintf("corrupt result: %v", ierr), now)
		} else {
			c.counters.StaleReports++
		}
		return false, fmt.Sprintf("integrity: %v", ierr)
	}
	t, ok := c.tasks[hash]
	if !ok {
		c.counters.Corrupt++
		c.record("corrupt", hash, worker, leaseID, 0, "result addresses no known task")
		return false, "integrity: result addresses no known task"
	}
	if l, ok := c.leases[leaseID]; ok && l.hash != hash {
		// A live lease must not launder a Result for some other task past
		// the duplicate bookkeeping; drop the lease and judge the body on
		// its own (already-verified) merits below.
		c.dropLease(leaseID)
		c.counters.Corrupt++
		c.record("corrupt", hash, worker, leaseID, 0, "result does not match the leased spec")
		return false, "integrity: result does not match the leased spec"
	}
	c.dropLease(leaseID)
	if t.state == taskDone {
		c.counters.Duplicates++
		c.record("duplicate", hash, worker, leaseID, 0, "")
		return false, "duplicate"
	}
	// A valid Result beats a quarantine verdict that raced it: the
	// Quarantined counter keeps the event, but the task (and every sweep
	// referencing it) resolves to the Result.
	t.state = taskDone
	t.result = append(json.RawMessage(nil), body...)
	t.failure = ""
	for id := range t.leases {
		delete(c.leases, id)
		delete(t.leases, id)
	}
	c.counters.Completed++
	c.record("complete", hash, worker, leaseID, 0, "")
	return true, ""
}

// verify decodes a posted body — a RunSpec Result or a service Report,
// told apart by their discriminating schema fields — and checks its content
// address: the embedded spec's hash must equal the claimed SpecHash. It
// returns the verified address and the decoded spec.Result or
// service.Report, so no caller decodes the same bytes twice.
func verify(body []byte) (hash string, decoded any, err error) {
	if service.IsReportBody(body) {
		rep, err := service.VerifyReportBody(body)
		if err != nil {
			return "", nil, err
		}
		return rep.SpecHash, rep, nil
	}
	res, err := spec.DecodeResult(body)
	if err != nil {
		return "", nil, err
	}
	h, err := res.Spec.Hash()
	if err != nil {
		return "", nil, fmt.Errorf("embedded spec does not hash: %w", err)
	}
	if h != res.SpecHash {
		return "", nil, fmt.Errorf("result claims spec %.12s… but its spec hashes to %.12s…", res.SpecHash, h)
	}
	return h, res, nil
}

// FailKind classifies a worker-reported failure: resolve errors are the
// spec's fault and never retried; exec errors are environmental and
// consume the retry budget.
type FailKind string

const (
	FailResolve FailKind = "resolve"
	FailExec    FailKind = "exec"
)

// Fail records a worker-reported failure for a live lease. Reports from
// dead leases are dropped (counted as stale): the coordinator has already
// re-dispatched, and only live attempts may charge the budget.
func (c *Coordinator) Fail(leaseID int64, kind FailKind, msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.now()
	c.reap(now)
	l, ok := c.leases[leaseID]
	if !ok {
		c.counters.StaleReports++
		return
	}
	c.touchWorker(l.worker)
	c.failLocked(l.hash, leaseID, kind == FailResolve, msg, now)
}

// failLocked applies one failed attempt: quarantine on a permanent
// failure or an exhausted budget, exponential-backoff re-queue otherwise.
// Called with mu held; the lease (if any) is dropped.
func (c *Coordinator) failLocked(hash string, leaseID int64, permanent bool, msg string, now time.Time) {
	c.dropLease(leaseID)
	t := c.tasks[hash]
	if t == nil || t.state == taskDone || t.state == taskQuarantined {
		return
	}
	if permanent {
		c.quarantine(t, msg)
		return
	}
	t.attempts++
	if t.attempts >= c.opt.MaxAttempts {
		c.quarantine(t, fmt.Sprintf("retry budget exhausted after %d attempts: %s", t.attempts, msg))
		return
	}
	// Exponential backoff before the next dispatch: RetryDelay doubles per
	// consumed attempt, capped. Another lease may still be racing this
	// task (speculative); if so it stays leased and the loser's report is
	// what brought us here — requeue only when no lease remains.
	delay := c.opt.RetryDelay << (t.attempts - 1)
	if delay > c.opt.MaxRetryDelay {
		delay = c.opt.MaxRetryDelay
	}
	t.notBefore = now.Add(delay)
	c.counters.Retries++
	c.record("retry", t.hash, "", leaseID, t.attempts, msg)
	if len(t.leases) == 0 {
		t.state = taskPending
		c.queue = append(c.queue, t.hash)
	}
}

// quarantine permanently fails a task. Called with mu held.
func (c *Coordinator) quarantine(t *task, msg string) {
	t.state = taskQuarantined
	t.failure = msg
	for id := range t.leases {
		delete(c.leases, id)
		delete(t.leases, id)
	}
	c.counters.Quarantined++
	c.record("quarantine", t.hash, "", 0, t.attempts, msg)
}

// dropLease forgets one lease on both sides. Called with mu held.
func (c *Coordinator) dropLease(leaseID int64) {
	l, ok := c.leases[leaseID]
	if !ok {
		return
	}
	delete(c.leases, leaseID)
	delete(c.tasks[l.hash].leases, leaseID)
}

// reap drops every lease past its deadline and re-queues tasks left with
// no live lease. Called with mu held.
func (c *Coordinator) reap(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, id)
		t := c.tasks[l.hash]
		delete(t.leases, id)
		c.counters.Expirations++
		c.record("expire", l.hash, l.worker, id, t.attempts, "")
		if t.state == taskLeased && len(t.leases) == 0 {
			t.state = taskPending
			t.notBefore = now
			t.dispatched = time.Time{}
			c.queue = append(c.queue, t.hash)
		}
	}
}

// SweepStatus is one Collect answer. Results is populated (in submission
// order, quarantined elements as {"error": ...} like a /batch response)
// only once Done.
type SweepStatus struct {
	Done        bool              `json:"done"`
	Total       int               `json:"total"`
	Completed   int               `json:"completed"`
	Quarantined int               `json:"quarantined"`
	Results     []json.RawMessage `json:"results,omitempty"`
}

// Collect reports a sweep's progress; once every task is done or
// quarantined it carries the Results. The boolean reports whether the
// sweep id is known.
func (c *Coordinator) Collect(sweep string) (SweepStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap(c.opt.now())
	order, ok := c.sweeps[sweep]
	if !ok {
		return SweepStatus{}, false
	}
	st := SweepStatus{Total: len(order)}
	for _, hash := range order {
		switch c.tasks[hash].state {
		case taskDone:
			st.Completed++
		case taskQuarantined:
			st.Quarantined++
		}
	}
	st.Done = st.Completed+st.Quarantined == st.Total
	if st.Done {
		st.Results = make([]json.RawMessage, len(order))
		for i, hash := range order {
			t := c.tasks[hash]
			if t.state == taskDone {
				st.Results[i] = t.result
			} else {
				msg, _ := json.Marshal(map[string]string{"error": t.failure})
				st.Results[i] = msg
			}
		}
	}
	return st, true
}

// Status snapshots the counters and queue gauges.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap(c.opt.now())
	st := Status{Counters: c.counters, Sweeps: len(c.sweeps), Draining: c.draining}
	for _, t := range c.tasks {
		switch t.state {
		case taskPending:
			st.Pending++
		case taskLeased:
			st.Leased++
		case taskDone:
			st.Done++
		case taskQuarantined:
			st.Quarantined++
		}
	}
	return st
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"oovr/internal/spec"
)

// PermanentError marks an execution failure as the spec's own fault
// (resolve/input errors): the worker reports it as kind "resolve" and the
// coordinator quarantines the spec instead of retrying it.
type PermanentError struct{ Err error }

func (e PermanentError) Error() string { return e.Err.Error() }
func (e PermanentError) Unwrap() error { return e.Err }

// Permanent wraps err as non-retryable.
func Permanent(err error) error { return PermanentError{Err: err} }

// ExecFunc executes one RunSpec and returns the canonical Result bytes.
// Errors wrapped by Permanent quarantine the spec; everything else is
// retried within the coordinator's budget.
type ExecFunc func(rs spec.RunSpec) ([]byte, error)

// ExecServiceFunc executes one single-cell ServiceSpec and returns the
// canonical service Report bytes, under the same error contract.
type ExecServiceFunc func(sp spec.ServiceSpec) ([]byte, error)

// Worker pulls leased specs from a coordinator, executes them, and posts
// Results back. Every coordinator RPC retries with exponential backoff
// and jitter; a lease is kept alive by a heartbeat goroutine renewing at
// a third of the TTL. Run returns only after the in-flight lease (if any)
// is fully reported — cancel the context to drain gracefully.
type Worker struct {
	// Coordinator is the base URL (e.g. http://host:8037).
	Coordinator string
	// Name identifies this worker in leases; the coordinator uses it to
	// keep speculative re-issues off the straggling worker itself.
	Name string
	// Exec executes one spec (required).
	Exec ExecFunc
	// ExecService executes one leased service cell. A worker without it
	// reports service grants as resolve failures, quarantining them — an
	// old worker must not burn a cell's retry budget pretending to run it.
	ExecService ExecServiceFunc
	// Chaos injects deterministic faults (zero value: none).
	Chaos Chaos
	// StallFor is how long a chaos stall sits on a finished lease while
	// still heartbeating (default 3s; tests shrink it).
	StallFor time.Duration
	// RPCBackoff paces coordinator RPC retries (default 100ms..5s with
	// jitter); IdleBackoff paces polling an empty queue (default
	// 100ms..2s, never above half the last lease TTL).
	RPCBackoff  *Backoff
	IdleBackoff *Backoff
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Logf, when set, receives one line per notable event (lease, result,
	// fault injection, lost lease).
	Logf func(format string, args ...any)

	// Stats are live counters, readable while running.
	Stats WorkerStats
}

// WorkerStats count a worker's lease outcomes.
type WorkerStats struct {
	Leases     atomic.Int64
	Completed  atomic.Int64
	Failed     atomic.Int64
	Rejected   atomic.Int64 // completions the coordinator did not accept
	Crashes    atomic.Int64 // chaos
	Stalls     atomic.Int64 // chaos
	Corrupts   atomic.Int64 // chaos
	RPCRetries atomic.Int64 // coordinator RPCs re-sent after backoff
	IdleSleeps atomic.Int64 // empty-queue polls that slept
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.HTTP != nil {
		return w.HTTP
	}
	return http.DefaultClient
}

// Run executes the pull loop until ctx is canceled (graceful drain: the
// in-flight lease finishes and reports first) or the returned error is
// permanent (nil Exec, malformed coordinator URL).
func (w *Worker) Run(ctx context.Context) error {
	if w.Exec == nil {
		return fmt.Errorf("fleet: worker has no Exec")
	}
	if w.Name == "" {
		w.Name = "worker"
	}
	if w.StallFor <= 0 {
		w.StallFor = 3 * time.Second
	}
	if w.RPCBackoff == nil {
		w.RPCBackoff = NewBackoff(100*time.Millisecond, 5*time.Second, w.Chaos.Seed+1)
	}
	if w.IdleBackoff == nil {
		w.IdleBackoff = NewBackoff(100*time.Millisecond, 2*time.Second, w.Chaos.Seed+2)
	}
	tries := map[string]int{} // per-spec dispatch count, keys the chaos decisions
	idle := 0
	// A straggler is re-issued from StragglerAfter (4 lease TTLs by
	// default) until its worker delivers, maybe a TTL later: an idle
	// worker polls at least every half TTL so as not to sleep through it.
	maxIdle := time.Duration(math.MaxInt64)
	for ctx.Err() == nil {
		g, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		if g == nil {
			idle++
			w.Stats.IdleSleeps.Add(1)
			sleep(ctx, min(w.IdleBackoff.Delay(idle-1), maxIdle))
			continue
		}
		idle = 0
		maxIdle = max(time.Duration(g.TTLMs)*time.Millisecond/2, time.Millisecond)
		tries[g.Hash]++
		w.Stats.Leases.Add(1)
		w.serve(ctx, g, tries[g.Hash]-1)
	}
	w.logf("%s: drained", w.Name)
	return nil
}

// serve executes one granted lease end to end, chaos included.
func (w *Worker) serve(ctx context.Context, g *Grant, try int) {
	action := w.Chaos.decide(g.Hash, try)
	if action == chaosCrash {
		// A simulated crash: no heartbeat, no report — the lease must die
		// by TTL on the coordinator.
		w.Stats.Crashes.Add(1)
		w.logf("%s: chaos crash on %.12s… (lease %d)", w.Name, g.Hash, g.Lease)
		return
	}

	// Heartbeats: renew at a third of the TTL until the lease is settled.
	// A lost lease (410) is noted but does not abort the run — a valid
	// late Result is still accepted, and a superseded one is dropped as a
	// duplicate by the coordinator, not by guesswork here.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		interval := time.Duration(g.TTLMs) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		for sleep(hbCtx, interval) {
			if err := w.renew(hbCtx, g.Lease); err != nil {
				if errors.Is(err, ErrLeaseGone) {
					w.logf("%s: lease %d gone (%.12s…)", w.Name, g.Lease, g.Hash)
					return
				}
				// Transient RPC trouble: the retry loop inside renew has
				// already backed off; keep heartbeating.
			}
		}
	}()

	job, err := spec.DecodeJobBytes(g.Spec)
	if err != nil {
		w.Stats.Failed.Add(1)
		w.fail(ctx, g.Lease, FailResolve, fmt.Errorf("leased spec does not decode: %w", err))
		return
	}
	sp, isService := job.(spec.ServiceSpec)
	if isService && w.ExecService == nil {
		w.Stats.Failed.Add(1)
		w.fail(ctx, g.Lease, FailResolve, fmt.Errorf("this worker cannot execute service specs"))
		return
	}

	if action == chaosStall {
		// Straggle honestly: keep renewing, deliver very late.
		w.Stats.Stalls.Add(1)
		w.logf("%s: chaos stall %v on %.12s…", w.Name, w.StallFor, g.Hash)
		sleep(ctx, w.StallFor)
	}

	var body []byte
	if isService {
		body, err = w.ExecService(sp)
	} else {
		body, err = w.Exec(job.(spec.RunSpec))
	}
	if err != nil {
		kind := FailExec
		var pe PermanentError
		if errors.As(err, &pe) {
			kind = FailResolve
		}
		w.Stats.Failed.Add(1)
		w.logf("%s: %s failure on %.12s…: %v", w.Name, kind, g.Hash, err)
		w.fail(ctx, g.Lease, kind, err)
		return
	}

	if action == chaosCorrupt {
		w.Stats.Corrupts.Add(1)
		w.logf("%s: chaos corrupt on %.12s…", w.Name, g.Hash)
		body = corruptBody(body)
	}

	accepted, reason, err := w.complete(ctx, g.Lease, body)
	if err != nil {
		w.logf("%s: could not deliver %.12s…: %v", w.Name, g.Hash, err)
		return
	}
	if accepted {
		w.Stats.Completed.Add(1)
	} else {
		w.Stats.Rejected.Add(1)
		w.logf("%s: result for %.12s… not accepted: %s", w.Name, g.Hash, reason)
	}
}

// lease asks for work: nil Grant means an empty queue (or a draining
// coordinator — the worker keeps polling; a restarted coordinator will
// have work again).
func (w *Worker) lease(ctx context.Context) (*Grant, error) {
	var g *Grant
	err := w.rpc(ctx, "/fleet/lease", leaseRequest{Worker: w.Name}, func(code int, body []byte) error {
		switch code {
		case http.StatusOK:
			g = new(Grant)
			return json.Unmarshal(body, g)
		case http.StatusNoContent, http.StatusServiceUnavailable:
			g = nil
			return nil
		default:
			return retryable(code, body)
		}
	})
	return g, err
}

func (w *Worker) renew(ctx context.Context, lease int64) error {
	return w.rpc(ctx, "/fleet/renew", renewRequest{Lease: lease}, func(code int, body []byte) error {
		switch code {
		case http.StatusOK:
			return nil
		case http.StatusGone:
			return ErrLeaseGone
		default:
			return retryable(code, body)
		}
	})
}

func (w *Worker) complete(ctx context.Context, lease int64, result []byte) (accepted bool, reason string, err error) {
	var resp completeResponse
	err = w.rpc(ctx, "/fleet/complete", completeRequest{Lease: lease, Result: result}, func(code int, body []byte) error {
		if code != http.StatusOK {
			return retryable(code, body)
		}
		return json.Unmarshal(body, &resp)
	})
	return resp.Accepted, resp.Reason, err
}

func (w *Worker) fail(ctx context.Context, lease int64, kind FailKind, ferr error) {
	_ = w.rpc(ctx, "/fleet/fail", failRequest{Lease: lease, Kind: string(kind), Error: ferr.Error()}, func(code int, body []byte) error {
		if code != http.StatusOK {
			return retryable(code, body)
		}
		return nil
	})
}

// rpcError marks a response worth retrying (transport failure or 5xx).
type rpcError struct{ error }

func retryable(code int, body []byte) error {
	err := fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body))
	if code >= 500 {
		return rpcError{err}
	}
	return err
}

// maxRPCAttempts bounds one RPC's retry loop; with the default backoff
// this rides out ~30s of coordinator outage before giving up.
const maxRPCAttempts = 8

// rpc posts one JSON request and hands the response to handle. Transport
// errors and retryable statuses re-send with exponential backoff and
// jitter; anything else is returned as-is.
func (w *Worker) rpc(ctx context.Context, path string, payload any, handle func(code int, body []byte) error) error {
	reqBody, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	var last error
	for attempt := 0; attempt < maxRPCAttempts; attempt++ {
		if attempt > 0 {
			w.Stats.RPCRetries.Add(1)
			if !sleep(ctx, w.RPCBackoff.Delay(attempt-1)) {
				return ctx.Err()
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(reqBody))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.client().Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			last = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			last = err
			continue
		}
		herr := handle(resp.StatusCode, body)
		var re rpcError
		if errors.As(herr, &re) {
			last = herr
			continue
		}
		return herr
	}
	return fmt.Errorf("fleet: %s: no answer after %d attempts: %w", path, maxRPCAttempts, last)
}

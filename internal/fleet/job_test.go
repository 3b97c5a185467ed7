package fleet

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"oovr/internal/server"
	"oovr/internal/service"
	"oovr/internal/spec"
)

// oovrdWorker returns a worker wired the way `oovrd -worker` wires one:
// every leased job runs through the job server's single-flight cache, and
// an error that is not an execution failure quarantines the spec.
func oovrdWorker(exec *server.Server) *Worker {
	run := func(j spec.Job) ([]byte, error) {
		body, _, _, err := exec.Job(context.Background(), j)
		if err != nil && !server.IsExecError(err) {
			return nil, Permanent(err)
		}
		return body, err
	}
	return &Worker{
		Name:        "w",
		Exec:        func(rs spec.RunSpec) ([]byte, error) { return run(rs) },
		ExecService: func(sp spec.ServiceSpec) ([]byte, error) { return run(sp) },
	}
}

// startFleet serves a coordinator over HTTP, runs w against it until the
// test ends, and returns the coordinator and a client for it.
func startFleet(t *testing.T, w *Worker) (*Coordinator, *Client) {
	t.Helper()
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	ts := httptest.NewServer(coord)
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		stop()
		wg.Wait()
		ts.Close()
	})
	w.Coordinator = ts.URL
	w.Logf = t.Logf
	w.IdleBackoff = NewBackoff(5*time.Millisecond, 20*time.Millisecond, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	return coord, &Client{URL: ts.URL, Poll: 10 * time.Millisecond}
}

func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestRunServiceMatchesInProcess shards a two-cell λ sweep across the
// fleet, one task per cell, and requires the assembled Report to be
// byte-identical to an in-process service.Run.
func TestRunServiceMatchesInProcess(t *testing.T) {
	sp := spec.ServiceSpec{
		ServiceVersion: 1,
		Nodes:          []spec.NodeGroup{{Count: 2}},
		Sessions:       []spec.SessionMix{{Workload: "DM3-640"}},
		LambdaSweep:    []float64{4, 16},
		MeanFrames:     5,
		HorizonMs:      300,
		Seed:           7,
	}
	local, err := service.Run(sp, service.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Encode()
	if err != nil {
		t.Fatal(err)
	}
	coord, client := startFleet(t, oovrdWorker(server.New(server.Options{Workers: 2})))
	rep, err := client.RunService(testContext(t), sp)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	got, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet report differs from service.Run (%d vs %d bytes)", len(got), len(want))
	}
	if st := coord.Status(); st.Submitted != 2 || st.Completed != 2 {
		t.Errorf("want 2 cells submitted and completed, got %+v", st.Counters)
	}
}

// TestWorkerWithoutExecServiceQuarantinesCell: a worker that cannot run
// service cells reports a leased cell as a resolve failure, so the
// coordinator quarantines it at once instead of spending its retry budget.
func TestWorkerWithoutExecServiceQuarantinesCell(t *testing.T) {
	w := oovrdWorker(server.New(server.Options{Workers: 1}))
	w.ExecService = nil
	coord, client := startFleet(t, w)
	sp := spec.ServiceSpec{ServiceVersion: 1, MeanFrames: 5, HorizonMs: 100}
	_, err := client.RunService(testContext(t), sp)
	if err == nil || !strings.Contains(err.Error(), "cannot execute service specs") {
		t.Fatalf("RunService error = %v, want the worker's refusal", err)
	}
	st := coord.Status()
	if st.Dispatched != 1 || st.Quarantined != 1 || st.Retries != 0 {
		t.Errorf("want one dispatch quarantined without retry, got %+v", st.Counters)
	}
	if n := w.Stats.Failed.Load(); n != 1 {
		t.Errorf("worker failed %d leases, want 1", n)
	}
}

// TestRunOneMatchesLocal: one RunSpec through the fleet returns the same
// Metrics as running it in-process.
func TestRunOneMatchesLocal(t *testing.T) {
	rs := mkSpec(3)
	want, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, client := startFleet(t, oovrdWorker(server.New(server.Options{Workers: 1})))
	got, err := client.RunOne(testContext(t), rs)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet metrics differ from local run:\n got %+v\nwant %+v", got, want)
	}
}

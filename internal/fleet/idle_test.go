package fleet

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"oovr/internal/experiments"
	"oovr/internal/spec"
)

// TestIdleWorkerCatchesAStraggler pins that an idle worker polls often
// enough to take over a straggler. The coordinator's clocks tick in lease
// TTLs (100 ms here); a spec leased and renewed but not delivered becomes
// a straggler after 1.5 s and stays one for 700 ms. A worker left to its
// default idle backoff (100 ms doubling to 2 s, jittered) polls 0.94 s
// and 2.72 s into its idling, skipping that whole window; polling at
// least every half TTL, it must speculate.
func TestIdleWorkerCatchesAStraggler(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 100 * time.Millisecond, StragglerAfter: 1500 * time.Millisecond})
	ts := httptest.NewServer(coord)
	defer ts.Close()
	specs := experiments.SpecMatrix(experiments.Options{Frames: 1}, nil)[:2]
	if _, _, err := coord.Submit(specs); err != nil {
		t.Fatal(err)
	}
	// The straggler: leased here, renewed, never delivered.
	g, err := coord.Lease("staller")
	if err != nil || g == nil {
		t.Fatalf("lease: %v, %v", g, err)
	}
	start := time.Now()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	idler := &Worker{Coordinator: ts.URL, Name: "idler", Exec: func(rs spec.RunSpec) ([]byte, error) {
		m, err := rs.Run()
		if err != nil {
			return nil, Permanent(err)
		}
		res, err := spec.NewResult(rs, m)
		if err != nil {
			return nil, err
		}
		return res.Encode()
	}}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := idler.Run(ctx); err != nil {
			t.Errorf("idler: %v", err)
		}
	}()
	for time.Since(start) < 2200*time.Millisecond {
		if coord.Status().Counters.Speculative > 0 {
			return
		}
		if err := coord.Renew(g.Lease); err != nil {
			t.Fatalf("renew the straggler: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("no speculative lease in the 700 ms a straggler was eligible; the idle worker slept %d times", idler.Stats.IdleSleeps.Load())
}

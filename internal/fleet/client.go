package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"oovr/internal/multigpu"
	"oovr/internal/service"
	"oovr/internal/spec"
)

// Client submits spec matrices to a coordinator and waits for their
// Results — the one-flag seam oovrsim and oovrfigures use to shard a
// sweep across machines. It is safe for concurrent use: each call is an
// independent sweep, and the coordinator deduplicates by content address,
// so concurrent callers sharing specs share executions too.
type Client struct {
	// URL is the coordinator base (e.g. http://host:8037).
	URL string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Poll paces the collect loop (default 250ms, backing off to 2s).
	Poll time.Duration
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Submit registers a sweep of jobs — RunSpecs or single-cell
// ServiceSpecs, which self-discriminate on service_version — and returns
// its id.
func (c *Client) Submit(ctx context.Context, jobs []spec.Job) (string, error) {
	body, err := spec.EncodeArray(jobs)
	if err != nil {
		return "", err
	}
	var resp submitResponse
	if err := c.post(ctx, "/fleet/submit", body, &resp); err != nil {
		return "", err
	}
	return resp.Sweep, nil
}

// RunService shards a (possibly swept) ServiceSpec across the fleet — one
// task per cell — and assembles the canonical Report from the verified
// per-cell reports. The assembled bytes are identical to an in-process
// service.Run of the same spec: cells are content-addressed, their random
// draws derive from the cell spec itself, and each worker's report is
// re-verified client-side before assembly.
func (c *Client) RunService(ctx context.Context, sp spec.ServiceSpec) (service.Report, error) {
	cells, err := service.CellSpecs(sp)
	if err != nil {
		return service.Report{}, err
	}
	sweep, err := c.Submit(ctx, spec.Jobs(cells))
	if err != nil {
		return service.Report{}, err
	}
	bodies, err := c.Wait(ctx, sweep)
	if err != nil {
		return service.Report{}, err
	}
	reports := make([]service.CellReport, len(bodies))
	for i, body := range bodies {
		rep, err := decodeVerified[service.Report](body)
		if err != nil {
			return service.Report{}, fmt.Errorf("fleet: cell %d: %w", i, err)
		}
		if len(rep.Cells) != 1 {
			return service.Report{}, fmt.Errorf("fleet: cell %d: report carries %d cells, want 1", i, len(rep.Cells))
		}
		reports[i] = rep.Cells[0]
	}
	return service.NewReport(sp, reports)
}

// Wait polls the sweep until every spec is done or quarantined and
// returns the result bodies in submission order — canonical Results for
// completed specs, {"error": ...} elements for quarantined ones, exactly
// the /batch response shape.
func (c *Client) Wait(ctx context.Context, sweep string) ([]json.RawMessage, error) {
	poll := c.Poll
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		var st SweepStatus
		if err := c.get(ctx, "/fleet/collect?sweep="+sweep, &st); err != nil {
			return nil, err
		}
		if st.Done {
			return st.Results, nil
		}
		if !sleep(ctx, poll) {
			return nil, ctx.Err()
		}
		if poll < 2*time.Second {
			poll += poll / 2
		}
	}
}

// RunMatrix is Submit then Wait.
func (c *Client) RunMatrix(ctx context.Context, specs []spec.RunSpec) ([]json.RawMessage, error) {
	sweep, err := c.Submit(ctx, spec.Jobs(specs))
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, sweep)
}

// RunOne executes a single spec through the fleet and returns its decoded
// (and address-verified) Result — the experiments harness's Runner seam.
func (c *Client) RunOne(ctx context.Context, rs spec.RunSpec) (multigpu.Metrics, error) {
	bodies, err := c.RunMatrix(ctx, []spec.RunSpec{rs})
	if err != nil {
		return multigpu.Metrics{}, err
	}
	res, err := DecodeVerifiedResult(bodies[0])
	if err != nil {
		return multigpu.Metrics{}, err
	}
	return res.Metrics, nil
}

// DecodeVerifiedResult decodes one RunSpec sweep element.
func DecodeVerifiedResult(body []byte) (spec.Result, error) {
	return decodeVerified[spec.Result](body)
}

// decodeVerified decodes one sweep element: a quarantine error element
// becomes an error, and a Result or Report is re-verified against its
// content address on the client side — the fleet's integrity guarantee is
// end to end, not taken on faith from the coordinator.
func decodeVerified[T spec.Result | service.Report](body []byte) (T, error) {
	var zero T
	var probe struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &probe); err == nil && probe.Error != "" {
		return zero, fmt.Errorf("fleet: %s", probe.Error)
	}
	_, v, err := verify(body)
	if err != nil {
		return zero, fmt.Errorf("fleet: result integrity: %w", err)
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("fleet: element holds a %T, want a %T", v, zero)
	}
	return t, nil
}

func (c *Client) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.URL+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s: HTTP %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

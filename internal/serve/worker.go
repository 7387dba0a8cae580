package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/sweep"
)

// Worker is the pull side of the dispatch protocol: dfserved -worker
// runs one. It is the daemon's lease runner (runner.go) over HTTP: it polls
// the server for point leases, rebuilds a job's grid from the spec that
// rides in its leases, and pushes the records back.
type Worker struct {
	// Server is the dfserved base URL ("http://host:8080").
	Server string
	// Name identifies the worker in leases and logs.
	Name string
	// Batch is the maximum points per lease (0: 4).
	Batch int
	// TTL is the lease lifetime requested (0: one minute).
	TTL time.Duration
	// Poll is the idle wait between empty lease attempts (0: 500ms).
	Poll time.Duration
	// Jobs bounds concurrent simulations within a batch (0: pool width).
	Jobs int
	// Logf, when non-nil, receives one line per lease processed.
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// post sends one JSON request and decodes the response into out (out
// may be nil). Returns the HTTP status.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Server+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: bad response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Run processes leases until ctx is cancelled.
func (w *Worker) Run(ctx context.Context) error {
	w.runner().run(ctx)
	return nil
}

// runner resolves the worker's defaults into its lease runner.
func (w *Worker) runner() *runner {
	r := &runner{src: w, name: w.Name, batch: w.Batch, ttl: w.TTL, jobs: w.Jobs, poll: w.Poll, logf: w.logf}
	if r.batch <= 0 {
		r.batch = 4
	}
	if r.ttl <= 0 {
		r.ttl = time.Minute
	}
	if r.poll <= 0 {
		r.poll = 500 * time.Millisecond
	}
	return r
}

// The lease protocol (leases) over the daemon's worker API.

func (w *Worker) lease(ctx context.Context, worker string, max int, ttl time.Duration) (sweep.LeaseInfo, bool, error) {
	var info sweep.LeaseInfo
	status, err := w.post(ctx, "/api/worker/lease",
		leaseRequest{Worker: worker, MaxPoints: max, TTLSeconds: ttl.Seconds()}, &info)
	return info, err == nil && status != http.StatusNoContent, err
}

func (w *Worker) renew(ctx context.Context, leaseID string, ttl time.Duration) error {
	_, err := w.post(ctx, "/api/worker/renew", renewRequest{LeaseID: leaseID, TTLSeconds: ttl.Seconds()}, nil)
	return err
}

func (w *Worker) complete(ctx context.Context, jobID, leaseID string, recs []sweep.Record) (int, error) {
	var res struct {
		Applied int `json:"applied"`
	}
	_, err := w.post(ctx, "/api/worker/complete", completeRequest{JobID: jobID, LeaseID: leaseID, Records: recs}, &res)
	if err == nil {
		w.logf("worker: %s: %d points (%d applied)", leaseID, len(recs), res.Applied)
	}
	return res.Applied, err
}

// grid rebuilds the job's grid from the spec that rides in the lease.
func (w *Worker) grid(info sweep.LeaseInfo) (sweep.Grid, error) {
	var spec experiments.Spec
	if err := json.Unmarshal(info.Spec, &spec); err != nil {
		return sweep.Grid{}, fmt.Errorf("bad spec in lease: %w", err)
	}
	if err := spec.Normalize(); err != nil {
		return sweep.Grid{}, err
	}
	return spec.Grid()
}

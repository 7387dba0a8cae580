package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dragonfly/internal/report"
	"dragonfly/internal/sweep"
)

// One handler struct per route: each is a thin HTTP translation over the
// Manager, which owns the state. Handler() assembles them on one mux
// together with the worker dispatch surface and the shared live
// introspection endpoints.

// maxBodyBytes bounds request bodies (specs and record batches are
// small; record batches scale with points per lease, not grid size).
const maxBodyBytes = 16 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return false
	}
	return true
}

// jobOf resolves the {id} path value, accepting either the fingerprint
// ID or the short display name.
func jobOf(m *Manager, r *http.Request) *sweep.Job {
	id := r.PathValue("id")
	if j := m.Store().Job(id); j != nil {
		return j
	}
	for _, j := range m.Store().Jobs() {
		if j.Name() == id {
			return j
		}
	}
	return nil
}

// NewServer returns the http.Server every HTTP surface of this package runs
// under — the daemon (Manager.Handler) and the live endpoint (ServeLive):
// it bounds what a client can hold open by going quiet, in the request line
// and headers, the (size-capped) body and an idle keep-alive connection.
// There is no WriteTimeout: /watch streams for as long as its job runs, so
// it bounds each line by watchWriteTimeout instead.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// Handler assembles the daemon's full route table.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /{$}", indexHandler{})
	mux.Handle("POST /api/jobs", submitHandler{m})
	mux.Handle("GET /api/jobs", listJobsHandler{m})
	mux.Handle("GET /api/jobs/{id}", getJobHandler{m})
	mux.Handle("GET /api/jobs/{id}/records", recordsHandler{m})
	mux.Handle("GET /api/jobs/{id}/series", seriesHandler{m})
	mux.Handle("GET /api/jobs/{id}/csv", csvHandler{m})
	mux.Handle("GET /api/jobs/{id}/watch", watchHandler{m})
	mux.Handle("POST /api/jobs/{id}/cancel", cancelHandler{m})
	mux.Handle("POST /api/worker/lease", leaseHandler{m})
	mux.Handle("POST /api/worker/renew", renewHandler{m})
	mux.Handle("POST /api/worker/complete", completeHandler{m})
	mux.Handle("GET /api/stats", statsHandler{m})
	liveRoutes(mux, m.live)
	return mux
}

// indexHandler lists the API (GET /).
type indexHandler struct{}

func (indexHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprint(w, `dfserved — dragonfly sweep service

POST /api/jobs                 submit a sweep spec (dedup by fingerprint)
GET  /api/jobs                 list jobs
GET  /api/jobs/{id}            job status
GET  /api/jobs/{id}/records    completed records (point-index order)
GET  /api/jobs/{id}/series     aggregated seed-averaged series (when done)
GET  /api/jobs/{id}/csv        series as CSV, byte-identical to dfsweep -csv
GET  /api/jobs/{id}/watch      stream JSONL status lines until done
POST /api/jobs/{id}/cancel     cancel a job
POST /api/worker/lease         lease a point batch (worker pull)
POST /api/worker/renew         extend a lease
POST /api/worker/complete      push completed records
GET  /api/stats                store counters (leases, dedup hits)
GET  /api/progress             live progress (shared with dfexperiments)
GET  /api/tasks                per-job timings
GET  /debug/vars               expvar dump
`)
}

// submitHandler accepts a spec (POST /api/jobs). 201 for a new job, 200
// when the fingerprint deduped onto an existing one.
type submitHandler struct{ m *Manager }

func (h submitHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	res, err := h.m.submit(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusCreated
	if res.Existing {
		status = http.StatusOK
	}
	writeJSON(w, status, res)
}

// listJobsHandler lists job snapshots (GET /api/jobs).
type listJobsHandler struct{ m *Manager }

func (h listJobsHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	jobs := h.m.Store().Jobs()
	out := make([]sweep.JobSnapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot(false)
	}
	writeJSON(w, http.StatusOK, out)
}

// getJobHandler returns one job's status (GET /api/jobs/{id}).
type getJobHandler struct{ m *Manager }

func (h getJobHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	j := jobOf(h.m, r)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot(true))
}

// recordsHandler returns the completed records in point-index order
// (GET /api/jobs/{id}/records).
type recordsHandler struct{ m *Manager }

func (h recordsHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	j := jobOf(h.m, r)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	recs, done := j.Records()
	writeJSON(w, http.StatusOK, map[string]any{
		"job":      j.ID(),
		"done":     done,
		"records":  recs,
		"returned": len(recs),
	})
}

// jobSeries aggregates a finished job's records (the shared body of the
// series and csv routes). series stays nil for an unfinished job; warn
// counts the failed points and names the first (the series then cover the
// surviving points, as dfsweep renders them before it fails).
func jobSeries(m *Manager, r *http.Request) (j *sweep.Job, series []sweep.Series, warn string, err error) {
	j = jobOf(m, r)
	if j == nil {
		return nil, nil, "", fmt.Errorf("unknown job %q", r.PathValue("id"))
	}
	recs, done := j.Records()
	if !done {
		return j, nil, "", nil
	}
	series, aggErr := sweep.AggregateRecords(recs)
	if aggErr != nil {
		warn = aggErr.Error()
	}
	return j, series, warn, nil
}

// seriesHandler returns the aggregated series (GET /api/jobs/{id}/series).
type seriesHandler struct{ m *Manager }

func (h seriesHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	j, series, warn, err := jobSeries(h.m, r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if series == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is not complete", j.Name()))
		return
	}
	out := map[string]any{"job": j.ID(), "series": series}
	if warn != "" {
		out["warning"] = warn
	}
	writeJSON(w, http.StatusOK, out)
}

// csvHandler renders the series through the same report.CurveCSV writer
// dfsweep -csv uses, so the two outputs can be compared with cmp — the
// identity check the multi-host merge invariant is stated in terms of.
type csvHandler struct{ m *Manager }

func (h csvHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	j, series, _, err := jobSeries(h.m, r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if series == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is not complete", j.Name()))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	report.CurveCSV(w, series) //nolint:errcheck // client went away
}

// watchWriteTimeout bounds the write of one /watch line: a client that
// stops reading is dropped once the TCP buffers fill, instead of pinning the
// handler's goroutine in Encode for good.
const watchWriteTimeout = 30 * time.Second

// watchHandler streams one JSONL status line per state change until the
// job finishes or the client disconnects (GET /api/jobs/{id}/watch).
type watchHandler struct{ m *Manager }

func (h watchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	j := jobOf(h.m, r)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/jsonl")
	enc := json.NewEncoder(w)
	for {
		ch := j.Changed() // grab before snapshotting: no lost wakeups
		snap := j.Snapshot(false)
		if err := rc.SetWriteDeadline(time.Now().Add(watchWriteTimeout)); err != nil {
			return
		}
		if err := enc.Encode(snap); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
		if snap.Status == sweep.JobDone || snap.Status == sweep.JobCancelled {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// cancelHandler cancels a job (POST /api/jobs/{id}/cancel).
type cancelHandler struct{ m *Manager }

func (h cancelHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	j := jobOf(h.m, r)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if err := h.m.cancelJob(j.ID()); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot(false))
}

// leaseRequest is the worker-pull body.
type leaseRequest struct {
	Worker     string  `json:"worker"`
	MaxPoints  int     `json:"max_points"`
	TTLSeconds float64 `json:"ttl_seconds"`
}

// leaseHandler grants a point batch (POST /api/worker/lease). 204 when
// no work is pending.
type leaseHandler struct{ m *Manager }

func (h leaseHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readBody(w, r, &req) {
		return
	}
	info, ok, _ := h.m.lease(r.Context(), req.Worker, req.MaxPoints, time.Duration(req.TTLSeconds*float64(time.Second)))
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// renewRequest extends a lease.
type renewRequest struct {
	LeaseID    string  `json:"lease_id"`
	TTLSeconds float64 `json:"ttl_seconds"`
}

// renewHandler extends a lease (POST /api/worker/renew). 410 when the
// lease already expired — the worker should drop the batch.
type renewHandler struct{ m *Manager }

func (h renewHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !readBody(w, r, &req) {
		return
	}
	if err := h.m.renew(r.Context(), req.LeaseID, time.Duration(req.TTLSeconds*float64(time.Second))); err != nil {
		writeError(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"lease_id": req.LeaseID})
}

// completeRequest pushes a batch's records back.
type completeRequest struct {
	JobID   string         `json:"job_id"`
	LeaseID string         `json:"lease_id"`
	Records []sweep.Record `json:"records"`
}

// completeHandler merges completed records (POST /api/worker/complete).
// Schema-mismatched records are rejected with 400; duplicates of points
// completed elsewhere after a lease expiry are dropped silently.
type completeHandler struct{ m *Manager }

func (h completeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !readBody(w, r, &req) {
		return
	}
	applied, err := h.m.complete(r.Context(), req.JobID, req.LeaseID, req.Records)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"applied": applied})
}

// statsHandler reports the store counters (GET /api/stats) — the CI
// smoke asserts the cache-hit fast path on points_leased staying flat.
type statsHandler struct{ m *Manager }

func (h statsHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	st := h.m.Store().Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": h.m.uptime().Seconds(),
		"store":          st,
	})
}

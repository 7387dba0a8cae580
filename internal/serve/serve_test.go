package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/report"
	"dragonfly/internal/sweep"
)

// testSpec is a tiny h=1 sweep (6 nodes, sub-second per point) used by
// every end-to-end test.
const testSpec = `{"h":1,"warmup":100,"measure":200,"mechanisms":["MIN"],"loads":[0.1,0.2],"seeds":[1,2]}`

const testSpecPoints = 4

// wantCSV runs the same spec locally — the dfsweep path: grid.Run,
// point-order records, AggregateRecords, CurveCSV — and returns the CSV
// bytes every server-side execution must reproduce exactly.
func wantCSV(t *testing.T, rawSpec string) []byte {
	t.Helper()
	var spec experiments.Spec
	if err := json.Unmarshal([]byte(rawSpec), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	samples := grid.Run(nil)
	recs := make([]sweep.Record, len(samples))
	for i, smp := range samples {
		recs[i] = sweep.RecordOf("", smp)
	}
	series, err := sweep.AggregateRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.CurveCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		m.Close() //nolint:errcheck
	})
	return m, srv
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func submitJob(t *testing.T, srv *httptest.Server, spec string) SubmitResult {
	t.Helper()
	status, body := postJSON(t, srv.URL+"/api/jobs", spec)
	if status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var res SubmitResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("submit response: %v: %s", err, body)
	}
	return res
}

func waitDone(t *testing.T, srv *httptest.Server, id string) sweep.JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		_, body := getBody(t, srv.URL+"/api/jobs/"+id)
		var snap sweep.JobSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("job status: %v: %s", err, body)
		}
		if snap.Status == sweep.JobDone {
			return snap
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return sweep.JobSnapshot{}
}

func statsOf(t *testing.T, srv *httptest.Server) sweep.StoreStats {
	t.Helper()
	_, body := getBody(t, srv.URL+"/api/stats")
	var out struct {
		Store sweep.StoreStats `json:"store"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("stats: %v: %s", err, body)
	}
	return out.Store
}

// The tentpole end-to-end path: submit over HTTP, local runners execute,
// records / series / csv come back — and the CSV is byte-identical to
// the local dfsweep-style run of the same spec.
func TestServeEndToEndLocal(t *testing.T) {
	_, srv := newTestServer(t, Options{LocalRunners: 2, LeaseTTL: time.Minute})

	res := submitJob(t, srv, testSpec)
	if res.Existing {
		t.Fatal("fresh spec reported as existing")
	}
	if res.Job.Total != testSpecPoints {
		t.Fatalf("job total = %d", res.Job.Total)
	}
	waitDone(t, srv, res.Job.ID)

	// Records come back complete, in point-index order.
	_, body := getBody(t, srv.URL+"/api/jobs/"+res.Job.ID+"/records")
	var recsOut struct {
		Done     bool           `json:"done"`
		Records  []sweep.Record `json:"records"`
		Returned int            `json:"returned"`
	}
	if err := json.Unmarshal(body, &recsOut); err != nil {
		t.Fatal(err)
	}
	if !recsOut.Done || recsOut.Returned != testSpecPoints {
		t.Fatalf("records: done=%v returned=%d", recsOut.Done, recsOut.Returned)
	}

	status, body := getBody(t, srv.URL+"/api/jobs/"+res.Job.ID+"/series")
	if status != http.StatusOK {
		t.Fatalf("series: status %d: %s", status, body)
	}
	var seriesOut struct {
		Series  []sweep.Series `json:"series"`
		Warning string         `json:"warning"`
	}
	if err := json.Unmarshal(body, &seriesOut); err != nil {
		t.Fatal(err)
	}
	if len(seriesOut.Series) != 2 || seriesOut.Warning != "" {
		t.Fatalf("series: %d curves, warning %q", len(seriesOut.Series), seriesOut.Warning)
	}

	_, csv := getBody(t, srv.URL+"/api/jobs/"+res.Job.ID+"/csv")
	if want := wantCSV(t, testSpec); !bytes.Equal(csv, want) {
		t.Fatalf("served CSV differs from local run:\ngot:\n%s\nwant:\n%s", csv, want)
	}

	// The shared live endpoints ride the same mux.
	_, body = getBody(t, srv.URL+"/api/progress")
	var prog struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	}
	if err := json.Unmarshal(body, &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Done != testSpecPoints || prog.Total != testSpecPoints {
		t.Fatalf("progress = %+v", prog)
	}

	// Job lookup works by display name too.
	if status, _ := getBody(t, srv.URL+"/api/jobs/"+res.Job.Name); status != http.StatusOK {
		t.Fatalf("lookup by name: status %d", status)
	}
}

// An identical spec resubmitted — even in a different spelling — dedups
// onto the finished job: HTTP 200 (not 201), Existing=true, and zero new
// simulations (the store lease counter stays flat).
func TestServeResubmitIsPureCacheHit(t *testing.T) {
	_, srv := newTestServer(t, Options{LocalRunners: 2, LeaseTTL: time.Minute})
	res := submitJob(t, srv, testSpec)
	waitDone(t, srv, res.Job.ID)

	leasedBefore := statsOf(t, srv).PointsLeased
	if leasedBefore < int64(testSpecPoints) {
		t.Fatalf("leased %d before resubmit", leasedBefore)
	}

	// Same sweep, different spelling: load range + seed base/count.
	respelled := `{"h":1,"warmup":100,"measure":200,"mechanisms":["min"],"load_spec":"0.1:0.2:0.1","seed_base":1,"seed_count":2}`
	status, body := postJSON(t, srv.URL+"/api/jobs", respelled)
	if status != http.StatusOK {
		t.Fatalf("resubmit: status %d (want 200 for a dedup hit): %s", status, body)
	}
	var res2 SubmitResult
	if err := json.Unmarshal(body, &res2); err != nil {
		t.Fatal(err)
	}
	if !res2.Existing || res2.Job.ID != res.Job.ID {
		t.Fatalf("resubmit: existing=%v id=%s (want %s)", res2.Existing, res2.Job.ID, res.Job.ID)
	}
	if res2.Job.Status != sweep.JobDone {
		t.Fatalf("resubmit status = %s", res2.Job.Status)
	}
	if leasedAfter := statsOf(t, srv).PointsLeased; leasedAfter != leasedBefore {
		t.Fatalf("resubmission ran simulations: leased %d -> %d", leasedBefore, leasedAfter)
	}
}

// A daemon restarted on the same store directory replays its submission
// journal and serves finished jobs from checkpoints — zero simulations.
func TestServeRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	m1, err := NewManager(Options{StoreDir: dir, LocalRunners: 2, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(m1.Handler())
	res := submitJob(t, srv1, testSpec)
	waitDone(t, srv1, res.Job.ID)
	_, csv1 := getBody(t, srv1.URL+"/api/jobs/"+res.Job.ID+"/csv")
	srv1.Close()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with no runners at all: anything served must come from disk.
	_, srv2 := newTestServer(t, Options{StoreDir: dir, LocalRunners: -1, LeaseTTL: time.Minute})
	status, body := postJSON(t, srv2.URL+"/api/jobs", testSpec)
	if status != http.StatusOK {
		t.Fatalf("resubmit after restart: status %d: %s", status, body)
	}
	var res2 SubmitResult
	if err := json.Unmarshal(body, &res2); err != nil {
		t.Fatal(err)
	}
	if !res2.Existing || res2.Job.Status != sweep.JobDone || res2.Job.Restored != testSpecPoints {
		t.Fatalf("restart job = %+v existing=%v", res2.Job, res2.Existing)
	}
	if st := statsOf(t, srv2); st.PointsLeased != 0 {
		t.Fatalf("restarted daemon ran %d simulations", st.PointsLeased)
	}
	_, csv2 := getBody(t, srv2.URL+"/api/jobs/"+res.Job.ID+"/csv")
	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("restart changed the CSV:\nbefore:\n%s\nafter:\n%s", csv1, csv2)
	}
}

// Two remote workers split a job between them (the server runs nothing
// itself) and the merged CSV is byte-identical to a single local run.
func TestServeWorkersMatchLocalRun(t *testing.T) {
	_, srv := newTestServer(t, Options{LocalRunners: -1, LeaseTTL: time.Minute})
	res := submitJob(t, srv, testSpec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan struct{})
	for i := 0; i < 2; i++ {
		w := &Worker{
			Server: srv.URL,
			Name:   fmt.Sprintf("w%d", i),
			Batch:  1, // force interleaving: four points, two workers
			TTL:    time.Minute,
			Poll:   10 * time.Millisecond,
		}
		go func() {
			defer func() { workerDone <- struct{}{} }()
			w.Run(ctx) //nolint:errcheck
		}()
	}
	waitDone(t, srv, res.Job.ID)
	cancel()
	for i := 0; i < 2; i++ {
		<-workerDone
	}

	_, csv := getBody(t, srv.URL+"/api/jobs/"+res.Job.ID+"/csv")
	if want := wantCSV(t, testSpec); !bytes.Equal(csv, want) {
		t.Fatalf("worker-split CSV differs from local run:\ngot:\n%s\nwant:\n%s", csv, want)
	}
	if st := statsOf(t, srv); st.PointsLeased != testSpecPoints {
		t.Fatalf("stats = %+v", st)
	}
}

// A worker that leases a batch and dies: after the lease expires the
// points go to a healthy worker, and the final CSV is still byte-identical
// to an uninterrupted single-host run.
func TestServeDeadWorkerReleased(t *testing.T) {
	m, srv := newTestServer(t, Options{LocalRunners: -1, LeaseTTL: time.Minute})
	now := time.Unix(1000, 0)
	m.Store().SetClock(func() time.Time { return now })

	res := submitJob(t, srv, testSpec)

	// The doomed worker leases half the job over the wire, then crashes
	// (i.e. is never heard from again).
	status, body := postJSON(t, srv.URL+"/api/worker/lease",
		`{"worker":"doomed","max_points":2,"ttl_seconds":60}`)
	if status != http.StatusOK {
		t.Fatalf("lease: status %d: %s", status, body)
	}
	var dead sweep.LeaseInfo
	if err := json.Unmarshal(body, &dead); err != nil {
		t.Fatal(err)
	}
	if len(dead.Points) != 2 {
		t.Fatalf("leased %d points", len(dead.Points))
	}

	// Its renewals stop; the deadline passes.
	now = now.Add(2 * time.Minute)
	if status, _ := postJSON(t, srv.URL+"/api/worker/renew",
		fmt.Sprintf(`{"lease_id":%q,"ttl_seconds":60}`, dead.LeaseID)); status != http.StatusGone {
		t.Fatalf("renewing an expired lease: status %d, want 410", status)
	}

	// A healthy worker drains the whole job, re-leased points included.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Server: srv.URL, Name: "healthy", Batch: 2, TTL: time.Minute, Poll: 10 * time.Millisecond}
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }() //nolint:errcheck
	waitDone(t, srv, res.Job.ID)
	cancel()
	<-workerDone

	_, csv := getBody(t, srv.URL+"/api/jobs/"+res.Job.ID+"/csv")
	if want := wantCSV(t, testSpec); !bytes.Equal(csv, want) {
		t.Fatalf("post-crash CSV differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", csv, want)
	}
	st := statsOf(t, srv)
	if st.LeasesExpired != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PointsLeased != testSpecPoints+2 { // the dead lease's 2 points were leased twice
		t.Fatalf("leased %d points, want %d", st.PointsLeased, testSpecPoints+2)
	}
}

// Cancelling stops dispatch; the job reports cancelled and workers get
// 204 on lease.
func TestServeCancel(t *testing.T) {
	_, srv := newTestServer(t, Options{LocalRunners: -1, LeaseTTL: time.Minute})
	res := submitJob(t, srv, testSpec)

	status, body := postJSON(t, srv.URL+"/api/jobs/"+res.Job.Name+"/cancel", "")
	if status != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", status, body)
	}
	_, body = getBody(t, srv.URL+"/api/jobs/"+res.Job.ID)
	var snap sweep.JobSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Status != sweep.JobCancelled {
		t.Fatalf("status = %s", snap.Status)
	}
	if status, _ := postJSON(t, srv.URL+"/api/worker/lease",
		`{"worker":"w","max_points":4,"ttl_seconds":60}`); status != http.StatusNoContent {
		t.Fatalf("lease on a cancelled job: status %d, want 204", status)
	}
	// The incomplete job refuses aggregation.
	if status, _ := getBody(t, srv.URL+"/api/jobs/"+res.Job.ID+"/series"); status != http.StatusConflict {
		t.Fatalf("series of an incomplete job: status %d, want 409", status)
	}
}

// Bad submissions are rejected with 400 and a JSON error body; unknown
// jobs 404.
func TestServeRejections(t *testing.T) {
	_, srv := newTestServer(t, Options{LocalRunners: -1, LeaseTTL: time.Minute})

	for _, spec := range []string{
		`{`, // malformed JSON
		`{"mechanisms":["teleport"],"loads":[0.1]}`,           // unknown mechanism
		`{"mechanisms":["MIN"]}`,                              // no loads
		`{"mechanisms":["MIN"],"loads":[0.1],"bogus_knob":1}`, // unknown field
		// More routers than the engine can index; refused from the numbers
		// alone (building either topology first would not finish).
		`{"h":64,"mechanisms":["MIN"],"loads":[0.1]}`,
		`{"h":1,"a":2000000,"mechanisms":["MIN"],"loads":[0.1]}`,
	} {
		status, body := postJSON(t, srv.URL+"/api/jobs", spec)
		if status != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400 (%s)", spec, status, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("spec %s: no JSON error body: %s", spec, body)
		}
	}
	if status, _ := getBody(t, srv.URL+"/api/jobs/nope"); status != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", status)
	}
	if status, _ := getBody(t, srv.URL+"/nope"); status != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", status)
	}
}

// The watch stream ends with a done snapshot.
func TestServeWatch(t *testing.T) {
	_, srv := newTestServer(t, Options{LocalRunners: 2, LeaseTTL: time.Minute})
	res := submitJob(t, srv, testSpec)

	resp, err := http.Get(srv.URL + "/api/jobs/" + res.Job.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last sweep.JobSnapshot
	dec := json.NewDecoder(resp.Body)
	lines := 0
	for {
		var snap sweep.JobSnapshot
		if err := dec.Decode(&snap); err != nil {
			break
		}
		last = snap
		lines++
	}
	if lines == 0 || last.Status != sweep.JobDone || last.Done != testSpecPoints {
		t.Fatalf("watch ended after %d lines with %+v", lines, last)
	}
}

// deadlineWriter is a ResponseWriter that records, for every line written,
// whether a future write deadline was set since the previous line.
type deadlineWriter struct {
	header   http.Header
	armed    bool // a future deadline was set since the last Write
	lines    int
	unbonded int // lines written without a fresh future deadline
}

func (d *deadlineWriter) Header() http.Header { return d.header }
func (d *deadlineWriter) WriteHeader(int)     {}
func (d *deadlineWriter) Flush()              {}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	if !d.armed {
		d.unbonded++
	}
	d.armed = false
	d.lines++
	return len(p), nil
}

func (d *deadlineWriter) SetWriteDeadline(t time.Time) error {
	d.armed = t.After(time.Now())
	return nil
}

// Every /watch line is written under a fresh future write deadline, so a
// client that stops reading cannot hold the handler forever.
func TestServeWatchSetsWriteDeadline(t *testing.T) {
	m, srv := newTestServer(t, Options{LocalRunners: 2, LeaseTTL: time.Minute})
	res := submitJob(t, srv, testSpec)

	w := &deadlineWriter{header: http.Header{}}
	m.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/jobs/"+res.Job.ID+"/watch", nil))
	if w.lines == 0 || w.unbonded != 0 {
		t.Fatalf("watch wrote %d lines, %d without a future write deadline", w.lines, w.unbonded)
	}
}

// ServeLive binds an ephemeral port and serves the shared live routes —
// the dfexperiments -listen path.
func TestServeLiveStandalone(t *testing.T) {
	l := newLiveForTest()
	addr, err := ServeLive(l, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/api/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var prog struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	if prog.Done != 1 || prog.Total != 5 {
		t.Fatalf("progress = %+v", prog)
	}
	for _, path := range []string{"/", "/api/tasks", "/debug/vars"} {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// The live endpoint runs under the daemon's bounds: a client that goes
// quiet is dropped, and nothing cuts a long response short.
func TestServeLiveHasTimeouts(t *testing.T) {
	srv := liveServer(newLiveForTest())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.ReadTimeout != time.Minute ||
		srv.IdleTimeout != 2*time.Minute || srv.WriteTimeout != 0 {
		t.Fatalf("live server timeouts: read header %v, read %v, idle %v, write %v; want 10s, 1m, 2m, none",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
}

// A submission puts one token in the kick channel, which wakes one runner;
// the runner that wins a lease must pass the token on, or its siblings
// sleep out their 250 ms poll while it works through the job alone. The
// job here is far shorter than that poll, so two leases are only ever
// outstanding together if the second runner was woken by the first.
func TestLocalRunnersCascadeAwake(t *testing.T) {
	m, err := NewManager(Options{LocalRunners: 2, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //nolint:errcheck
	const spec = `{"h":1,"warmup":100,"measure":400,"mechanisms":["MIN"],` +
		`"load_spec":"0.05:0.5:0.05","seed_base":1,"seed_count":5}`
	res, err := m.Submit(json.RawMessage(spec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Job.Total != 50 {
		t.Fatalf("job total = %d, want 50", res.Job.Total)
	}
	together := 0
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(200 * time.Microsecond) {
		st := m.Store().Stats()
		together = max(together, st.ActiveLeases)
		if st.PointsDone == res.Job.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
	}
	if together < 2 {
		t.Fatalf("at most %d lease outstanding at a time: one runner ran the whole job while the other slept", together)
	}
}

// A remote runner keeps the grid of the job it is serving — and with it the
// snapshot templates — from one lease to the next. Seeds are the innermost
// grid axis, so each two-point lease here is both seeds of one load: a
// runner that rebuilt its grid per lease would build both templates twice.
func TestWorkerKeepsTemplatesAcrossLeases(t *testing.T) {
	_, srv := newTestServer(t, Options{LocalRunners: -1, LeaseTTL: time.Minute})
	res := submitJob(t, srv, testSpec)

	w := &Worker{Server: srv.URL, Name: "w", Batch: 2, TTL: time.Minute}
	r := w.runner()
	ctx := context.Background()
	for n := 0; n < 2; n++ {
		info, ok, err := w.lease(ctx, r.name, r.batch, r.ttl)
		if err != nil || !ok {
			t.Fatalf("lease %d: ok=%v, err=%v", n, ok, err)
		}
		if err := r.serve(ctx, info); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, srv, res.Job.ID)
	if st := r.grid.Snapshots.Stats(); st.Templates != 2 { // (MIN, UN) × seeds 1, 2
		t.Fatalf("two leases of one job built %d templates, want one per seed: %+v", st.Templates, st)
	}
}

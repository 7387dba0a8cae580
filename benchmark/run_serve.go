package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/serve"
	"dragonfly/internal/sweep"
)

// leaseBatch is the points per lease of the traced run's pull worker,
// serve.Worker's default.
const leaseBatch = 4

// serveJob is one generated submission: the spec as first posted, its
// respellings, and how many points it expands to.
type serveJob struct {
	spec   []byte
	respel [][]byte
	points int
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// serveJobs generates a round's jobs — one per mechanism × pattern, each
// loads × seeds points, no point shared between two of them — and a
// superset of the first job.
func serveJobs(c *runCtx) (jobs []serveJob, superset serveJob) {
	sz := c.sz
	loads := make([]float64, sz.ServeLoads)
	sums := make([]float64, sz.ServeLoads) // 0.05+0.05+…: the last bits differ
	for i := range loads {
		loads[i] = float64(i+1) * 5 / 100
		sums[i] = 0.05
		if i > 0 {
			sums[i] += sums[i-1]
		}
	}
	top := loads[len(loads)-1]
	loadSpec := fmt.Sprintf("0.05:%g:0.05", top)
	seeds := make([]uint64, sz.ServeSeeds)
	for i := range seeds {
		seeds[i] = c.seed*1000 + uint64(i+1)
	}
	spec := func(mech, pat string, loads []float64) map[string]any {
		return map[string]any{
			"h": sz.ServeH, "warmup": sz.ServeWarm, "measure": sz.ServeMeasure,
			"mechanisms": []string{mech}, "patterns": []string{pat},
			"loads": loads, "seeds": seeds,
		}
	}
	with := func(m map[string]any, drop string, add map[string]any) []byte {
		out := make(map[string]any, len(m)+len(add))
		for k, v := range m {
			if k != drop {
				out[k] = v
			}
		}
		for k, v := range add {
			out[k] = v
		}
		return mustJSON(out)
	}
	for _, mech := range sz.ServeMechanisms {
		for _, pat := range sz.ServePatterns {
			m := spec(mech, pat, loads)
			jobs = append(jobs, serveJob{
				spec:   mustJSON(m),
				points: len(loads) * len(seeds),
				respel: [][]byte{
					with(m, "loads", map[string]any{"load_spec": loadSpec}),
					with(m, "seeds", map[string]any{"seed_base": seeds[0], "seed_count": len(seeds)}),
					with(m, "", map[string]any{"mechanisms": []string{strings.ToUpper(mech)}, "patterns": []string{strings.ToLower(pat)}}),
					with(m, "", map[string]any{"kind": "sweep", "arbitration": "transit-priority", "inj_queue": 256, "threshold": 0.43,
						"local_lat": 10, "global_lat": 100, "latency_model": "uniform", "reuse": "construct", "sim_workers": 1, "arrangement": "palmtree"}),
					with(m, "", map[string]any{"loads": sums, "p": sz.ServeH, "a": 2 * sz.ServeH, "olm": true}),
				},
			})
		}
	}
	first := sz.ServeMechanisms[0]
	more := append(append([]float64(nil), loads...), top+0.05, top+0.1)
	superset = serveJob{spec: mustJSON(spec(first, sz.ServePatterns[0], more)), points: len(more) * len(seeds)}
	return jobs, superset
}

// daemon is a serve.Manager behind a loopback http.Server, with the one
// client connection the benchmark's single caller uses.
type daemon struct {
	mgr  *serve.Manager
	srv  *http.Server
	url  string
	hc   *http.Client
	rec  *recorder
	done chan struct{}
}

func startDaemon(rec *recorder, dir string, localRunners int) (*daemon, error) {
	mgr, err := serve.NewManager(serve.Options{StoreDir: dir, LocalRunners: localRunners})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	d := &daemon{
		mgr:  mgr,
		srv:  &http.Server{Handler: mgr.Handler()},
		url:  "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		rec:  rec,
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the listener, waits for the serving goroutine and the
// manager's runners, and releases the store.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) //nolint:errcheck // falls back to Close on timeout
	d.srv.Close()
	<-d.done
	return d.mgr.Close()
}

// call is one HTTP exchange, counted as an operation: it fails on a
// transport error or a reply outside 2xx. The body is handed to read
// while the connection is still open.
func (d *daemon) call(method, path string, body []byte, read func(io.Reader) error) (status int, ok bool) {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err == nil {
		var resp *http.Response
		if resp, err = d.hc.Do(req); err == nil {
			status = resp.StatusCode
			if status < 200 || status > 299 {
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
				err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
			} else if read != nil {
				err = read(resp.Body)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain so the connection is reused
			resp.Body.Close()
		}
	}
	return status, d.rec.op(err == nil, "%s %s: %v", method, path, err)
}

func decodeInto(v any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}

func (d *daemon) stats() sweep.StoreStats {
	var out struct {
		Store sweep.StoreStats `json:"store"`
	}
	d.call("GET", "/api/stats", nil, decodeInto(&out))
	return out.Store
}

// jobTiming is what one served job cost its caller, in seconds.
type jobTiming struct {
	submit, firstLease, csv, total float64
}

// watch blocks on the job's status stream until it finishes and returns
// the seconds until the stream first showed a leased or finished point.
func (d *daemon) watch(id string) (firstLease float64, final sweep.JobSnapshot) {
	t0 := nanotime()
	d.call("GET", "/api/jobs/"+id+"/watch", nil, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &final); err != nil {
				return err
			}
			if firstLease == 0 && final.Leased+final.Done > final.Restored {
				firstLease = secondsSince(t0)
			}
		}
		return sc.Err()
	})
	d.rec.op(final.Status == sweep.JobDone && final.Failed == 0,
		"job %s ended %s with %d of %d points failed", final.Name, final.Status, final.Failed, final.Total)
	return firstLease, final
}

// serveOne is the caller's view of one new job: submit, block on the
// watch stream, fetch the CSV. work, when non-nil, runs between submit and
// watch (the traced run's pull worker).
func (d *daemon) serveOne(job serveJob, work func()) (t jobTiming, sub serve.SubmitResult, csv []byte) {
	t0 := nanotime()
	status, _ := d.call("POST", "/api/jobs", job.spec, decodeInto(&sub))
	d.rec.op(status == http.StatusCreated && !sub.Existing, "new job answered %d existing=%v", status, sub.Existing)
	t.submit = secondsSince(t0)
	if work != nil {
		work()
	}
	t.firstLease, _ = d.watch(sub.Job.ID)
	t1 := nanotime()
	d.call("GET", "/api/jobs/"+sub.Job.ID+"/csv", nil, func(r io.Reader) (err error) {
		csv, err = io.ReadAll(r)
		return err
	})
	t.csv = secondsSince(t1)
	t.total = secondsSince(t0)
	return t, sub, csv
}

// servedJob is a finished job as the in-process store replay needs it.
type servedJob struct {
	spec    []byte
	respel  [][]byte
	records []sweep.Record
}

// runServe is rounds of the daemon driven the way its users drive it: a new
// job at a time, then the same jobs respelled, then a grid that overlaps a
// finished one. Every round submits the same jobs to its own daemon and
// on-disk store; starting those is the set-up.
func runServe(c *runCtx) error {
	rec := c.rec
	var (
		submit, firstLease, csvS, latency, hits []float64 // over all rounds, ms
		pointsPerS, overheadMs                  []float64 // per round
		served                                  []servedJob
		hitS                                    float64 // last round's cache-hit phase
		last                                    sweep.StoreStats
	)
	jobs, superset := serveJobs(c)
	rounds, err := c.repeat(c.sz.ServeRounds, func(r int) (out round, err error) {
		t0 := nanotime()
		d, err := startDaemon(rec, filepath.Join(c.workdir, fmt.Sprintf("store-%d", r)), procs)
		if err != nil {
			return out, err
		}
		defer func() {
			if stopErr := d.stop(); err == nil {
				err = stopErr
			}
		}()
		out = round{SetupS: secondsSince(t0), Sec: beginSection()}

		var ids []string
		var csvs [][]byte
		points := 0
		for _, job := range jobs {
			t, sub, csv := d.serveOne(job, nil)
			submit, firstLease = append(submit, t.submit*1e3), append(firstLease, t.firstLease*1e3)
			csvS, latency = append(csvS, t.csv*1e3), append(latency, t.total*1e3)
			ids, csvs = append(ids, sub.Job.ID), append(csvs, csv)
			rec.op(sub.Job.Total == job.points, "job %s has %d points, want %d", sub.Job.Name, sub.Job.Total, job.points)
			points += job.points
		}
		newJobsS := secondsSince(out.Sec.start)

		before := d.stats()
		hitStart := nanotime()
		for i, job := range jobs {
			for _, raw := range job.respel {
				t0 := nanotime()
				var sub serve.SubmitResult
				status, _ := d.call("POST", "/api/jobs", raw, decodeInto(&sub))
				hits = append(hits, secondsSince(t0)*1e3)
				rec.op(status == http.StatusOK && sub.Existing && sub.Job.ID == ids[i] && sub.Job.Status == sweep.JobDone,
					"respelled job answered %d existing=%v id=%s status=%s", status, sub.Existing, sub.Job.ID, sub.Job.Status)
			}
		}
		hitS = secondsSince(hitStart)
		after := d.stats()
		rec.op(after.PointsLeased == before.PointsLeased, "cache hits leased %d points", after.PointsLeased-before.PointsLeased)

		_, sub, csv := d.serveOne(superset, nil)
		csvs = append(csvs, csv)
		rec.op(sub.Job.Restored == jobs[0].points, "superset job restored %d points from the base checkpoint, want %d", sub.Job.Restored, jobs[0].points)
		out.Sec.end()
		out.Digest = digestOf(csvs...)

		last = d.stats()
		simulated := points + superset.points - jobs[0].points
		rec.op(last.PointsLeased == int64(simulated), "store leased %d points, want %d", last.PointsLeased, simulated)
		pointsPerS = append(pointsPerS, float64(points)/newJobsS)

		// What the runners spent simulating, from the records they
		// returned: the rest of the two runners' time is the service's own.
		var recordS float64
		for i, id := range ids {
			var got struct {
				Records []sweep.Record `json:"records"`
			}
			d.call("GET", "/api/jobs/"+id+"/records", nil, decodeInto(&got))
			for _, rc := range got.Records {
				recordS += rc.WallSeconds
			}
			served = append(served, servedJob{spec: jobs[i].spec, respel: jobs[i].respel, records: got.Records})
		}
		overheadMs = append(overheadMs, (procs*newJobsS-recordS)*1e3/float64(points))
		return out, nil
	})
	if err != nil {
		return err
	}

	rec.set("serve.points_leased", float64(last.PointsLeased))
	rec.set("serve.points_restored", float64(last.PointsRestored))
	rec.setN("serve.points_per_s", median(pointsPerS), len(rounds))
	rec.setN("serve.overhead_per_point_ms", median(overheadMs), len(rounds))
	pct := func(name string, xs []float64, p float64) {
		if v, err := percentile(xs, p); rec.check(err, name) {
			rec.setN(name, v, len(xs))
		}
	}
	pct("serve.job_latency_ms_p50", latency, 50)
	pct("serve.job_latency_ms_p75", latency, 75)
	pct("serve.cache_hit_ms_p50", hits, 50)
	pct("serve.cache_hit_ms_p95", hits, 95)
	pct("serve.submit_ms_p50", submit, 50)
	pct("serve.csv_ms_p50", csvS, 50)
	pct("serve.first_lease_ms_p50", firstLease, 50)

	if c.traced {
		// The traced twin serves one more round, without the cache hits.
		return tracedServe(c, jobs, superset, served, rounds[len(rounds)-1].Sec.WallS-hitS)
	}
	return nil
}

// tracedServe serves the same jobs from a dispatch-only daemon, with the
// benchmark as its HTTP pull worker, one span per exchange and per point;
// then prices the store, the spec code and a restart on their own.
func tracedServe(c *runCtx, jobs []serveJob, superset serveJob, served []servedJob, untracedWall float64) error {
	rec, tr := c.rec, c.tr
	root := tr.begin(c.rec.workload, "", -1)
	defer tr.end(root)

	dir := filepath.Join(c.workdir, "store-traced")
	d, err := startDaemon(rec, dir, -1)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() //nolint:errcheck // an earlier error is being returned
		}
	}()

	var parent int
	worker := func() {
		for {
			var lease sweep.LeaseInfo
			ls := tr.begin("POST /api/worker/lease", "", parent)
			status, ok := d.call("POST", "/api/worker/lease",
				mustJSON(map[string]any{"worker": "benchmark", "max_points": leaseBatch}), func(r io.Reader) error {
					err := json.NewDecoder(r).Decode(&lease)
					if err == io.EOF { // 204: nothing pending
						return nil
					}
					return err
				})
			tr.end(ls)
			if !ok || status == http.StatusNoContent {
				return
			}
			// As serve.Worker does: rebuild the grid from the spec that
			// rides in the lease, run the batch on the shared pool.
			var spec experiments.Spec
			if !rec.check(json.Unmarshal(lease.Spec, &spec), "lease spec") || !rec.check(spec.Normalize(), "lease spec") {
				return
			}
			grid, err := spec.Grid()
			if !rec.check(err, "lease grid") {
				return
			}
			recs := make([]sweep.Record, len(lease.Points))
			sweep.Shared().Run(len(recs), sweep.RunOpts{MaxParallel: procs}, func(i int) { //nolint:errcheck // no context to cancel it
				pt := lease.Points[i]
				tr.time("Grid.RunPoint", fmt.Sprintf("%s/%g/%d", lease.JobName, pt.Load, pt.Seed), parent, func() {
					recs[i] = sweep.RecordOf("", grid.RunPoint(pt))
				})
			})
			body := mustJSON(map[string]any{"job_id": lease.JobID, "lease_id": lease.LeaseID, "records": recs})
			tr.time("POST /api/worker/complete", "", parent, func() { d.call("POST", "/api/worker/complete", body, nil) })
		}
	}

	settle()
	start := nanotime()
	var csvs [][]byte
	for _, job := range append(append([]serveJob(nil), jobs...), superset) {
		parent = tr.begin("job", "", root)
		_, _, csv := d.serveOne(job, worker)
		tr.end(parent)
		csvs = append(csvs, csv)
	}
	tracedWall := secondsSince(start)
	rec.op(digestOf(csvs...) == c.digest, "traced digest differs from untraced")
	rec.set("bench.trace_overhead", tracedWall/untracedWall-1)
	rtt := func(name, spanName string) {
		xs := tr.durations(spanName)
		if v, err := percentile(xs, 50); rec.check(err, name) {
			rec.setN(name, v*1e3, len(xs))
		}
	}
	rtt("serve.lease_rtt_ms_p50", "POST /api/worker/lease")
	rtt("serve.complete_rtt_ms_p50", "POST /api/worker/complete")

	// Restart: journal replay plus checkpoint load over the populated store.
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}
	settle()
	var mgr *serve.Manager
	rec.set("serve.restart_ms", 1e3*tr.time("serve.NewManager", "restart", root, func() {
		mgr, err = serve.NewManager(serve.Options{StoreDir: dir, LocalRunners: -1})
	}))
	if err != nil {
		return err
	}
	st := mgr.Store().Stats()
	rec.op(st.Jobs == len(jobs)+1 && st.PointsDone == st.PointsTotal,
		"restarted daemon has %d jobs with %d of %d points done", st.Jobs, st.PointsDone, st.PointsTotal)
	if err := mgr.Close(); err != nil {
		return err
	}

	// The spec code and the store in-process, on the submissions of every
	// untraced round — each round's into a store of its own, as it was served.
	var normalize, fingerprint, submitUs, leaseUs, completeUs []float64
	us := func(from int64) float64 { return secondsSince(from) * 1e6 }
	var store *sweep.Store
	defer func() {
		if store != nil {
			store.Close()
		}
	}()
	for i, job := range served {
		if i%len(jobs) == 0 {
			if store != nil {
				if err := store.Close(); err != nil {
					return err
				}
			}
			if store, err = sweep.NewStore(filepath.Join(c.workdir, fmt.Sprintf("store-inproc-%d", i))); err != nil {
				return err
			}
		}
		for _, raw := range append([][]byte{job.spec}, job.respel...) {
			var spec experiments.Spec
			if err := json.Unmarshal(raw, &spec); err != nil {
				return err
			}
			t0 := nanotime()
			err := spec.Normalize()
			normalize = append(normalize, us(t0))
			if err != nil {
				return err
			}
			t0 = nanotime()
			_, err = spec.Fingerprint()
			fingerprint = append(fingerprint, us(t0))
			if err != nil {
				return err
			}
		}

		var spec experiments.Spec
		if err := json.Unmarshal(job.spec, &spec); err != nil {
			return err
		}
		id, err1 := spec.Fingerprint()
		baseFP, err2 := spec.BaseFingerprint()
		canonical, err3 := spec.CanonicalJSON()
		if err := spec.Normalize(); err != nil || err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("spec of an already served job does not normalize")
		}
		grid, err := spec.Grid()
		if err != nil {
			return err
		}
		byPoint := make(map[sweep.Point]sweep.Record)
		for _, r := range job.records {
			byPoint[r.Point] = r
		}
		t0 := nanotime()
		_, _, err = store.Submit(id, baseFP, canonical, grid)
		submitUs = append(submitUs, us(t0))
		if err != nil {
			return err
		}
		for {
			t0 = nanotime()
			lease, ok := store.Lease("benchmark", leaseBatch, time.Minute)
			if !ok {
				break
			}
			leaseUs = append(leaseUs, us(t0))
			recs := make([]sweep.Record, len(lease.Points))
			for i, pt := range lease.Points {
				recs[i] = byPoint[pt]
			}
			t0 = nanotime()
			n, err := store.Complete(lease.JobID, lease.LeaseID, recs)
			completeUs = append(completeUs, us(t0))
			rec.op(err == nil && n == len(recs), "Store.Complete applied %d of %d records: %v", n, len(recs), err)
		}
	}
	pct := func(name string, xs []float64) {
		if v, err := percentile(xs, 50); rec.check(err, name) {
			rec.setN(name, v, len(xs))
		}
	}
	pct("experiments.spec_normalize_us", normalize)
	pct("experiments.fingerprint_us", fingerprint)
	pct("sweep.store_submit_us", submitUs)
	pct("sweep.store_lease_us", leaseUs)
	pct("sweep.store_complete_us", completeUs)
	return nil
}

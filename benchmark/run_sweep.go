package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dragonfly/internal/experiments"
	"dragonfly/internal/report"
	"dragonfly/internal/sim"
	"dragonfly/internal/sweep"
	"dragonfly/internal/topology"
)

func sweepPipeline(c *runCtx) (*experiments.Pipeline, sim.Config) {
	base := sim.DefaultConfig()
	base.Topology = topology.Balanced(c.sz.H)
	base.WarmupCycles, base.MeasureCycles = c.sz.SweepWarm, c.sz.SweepMeasure
	base.Seed = c.seed
	base.Workers = 1
	return experiments.Build(base, experiments.Options{
		Loads:      c.sz.SweepLoads,
		Seeds:      []uint64{c.seed},
		FairLoad:   0.4,
		Mechanisms: []string{"MIN", "In-Trns-MM"},
		Workers:    procs,
		Reuse:      sweep.ReuseConstruct,
	}), base
}

// renderTask renders one task the way dfexperiments does: the figure CSV
// for curves and breakdowns, the two text tables for the fairness tasks.
func renderTask(t *experiments.Task, series []sweep.Series, routersPerGroup int) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch t.Kind {
	case experiments.Curves:
		err = report.CurveCSV(&buf, series)
	case experiments.Breakdown:
		err = report.BreakdownCSV(&buf, series)
	case experiments.FairnessTables:
		buf.WriteString(report.InjectionTable(series, 0, routersPerGroup).String())
		buf.WriteString(report.FairnessTable(series).String())
	}
	return buf.Bytes(), err
}

// renderResults renders every task in pipeline order and counts a task
// error as a failed operation.
func renderResults(rec *recorder, results []experiments.TaskResult, routersPerGroup int) ([][]byte, error) {
	var parts [][]byte
	for _, r := range results {
		rec.op(r.Err == nil, "task %s: %v", r.Task.Name, r.Err)
		out, err := renderTask(r.Task, r.Series, routersPerGroup)
		if err != nil {
			return nil, err
		}
		parts = append(parts, []byte(r.Task.Name), out)
	}
	return parts, nil
}

// runSweep is rounds of the screening pipeline, each on a fresh on-disk
// checkpoint: experiments.Build and the checkpoint open are set-up,
// Pipeline.Run through to the rendered figures is the timed section.
// Templates are built inside it, once per round.
func runSweep(c *runCtx) error {
	rec := c.rec
	var (
		mu         sync.Mutex
		pointMs    []float64 // over all rounds
		efficiency []float64
		path       string
		points     int
	)
	rounds, err := c.repeat(c.sz.SweepRounds, func(r int) (round, error) {
		path = filepath.Join(c.workdir, fmt.Sprintf("sweep-%d.jsonl", r))
		t0 := nanotime()
		pipe, base := sweepPipeline(c)
		ck, err := sweep.OpenCheckpoint(path, pipe.Fingerprint())
		if err != nil {
			return round{}, err
		}
		out := round{SetupS: secondsSince(t0), Sec: beginSection()}

		first := len(pointMs)
		results, err := pipe.Run(context.Background(), ck, func(p experiments.Progress) {
			rec.op(p.Record.Err == "", "point %s: %s", p.Record.Key(), p.Record.Err)
			mu.Lock()
			pointMs = append(pointMs, p.Record.WallSeconds*1e3)
			mu.Unlock()
		})
		if !rec.check(err, "Pipeline.Run") {
			return out, err
		}
		parts, err := renderResults(rec, results, base.Topology.A)
		if err != nil {
			return out, err
		}
		if err := ck.Close(); err != nil {
			return out, err
		}
		out.Sec.end()
		out.Digest = digestOf(parts...)

		points = len(pointMs) - first
		rec.op(points == pipe.TotalPoints(), "%d points ran, the pipeline has %d", points, pipe.TotalPoints())
		efficiency = append(efficiency, sum(pointMs[first:])/1e3/(procs*out.Sec.WallS))
		return out, nil
	})
	if err != nil {
		return err
	}
	wall := rec.value("wall_s")

	rec.set("sweep.points", float64(points))
	rec.setN("sweep.points_per_s", float64(points)/wall, len(rounds))
	if p50, err := percentile(pointMs, 50); rec.check(err, "sweep.point_ms_p50") {
		rec.setN("sweep.point_ms_p50", p50, len(pointMs))
	}
	if p85, err := percentile(pointMs, 85); rec.check(err, "sweep.point_ms_p85") {
		rec.setN("sweep.point_ms_p85", p85, len(pointMs))
	}
	rec.setN("sweep.pool_efficiency", median(efficiency), len(rounds))

	if c.traced {
		return tracedSweep(c, path, c.typicalWall())
	}
	return nil
}

// template is one construction snapshot shared by the points of a
// (task arbitration, mechanism, pattern, seed) combination, with the
// retired networks the next restore overwrites — sweep.SnapshotCache's
// entry, owned here so that each step of a point can be timed.
type template struct {
	once sync.Once
	snap *sim.Snapshot
	err  error
	mu   sync.Mutex
	free []*sim.Network
}

func (t *template) take() *sim.Network {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.free)
	if n == 0 {
		return nil
	}
	net := t.free[n-1]
	t.free = t.free[:n-1]
	return net
}

func (t *template) put(net *sim.Network) {
	t.mu.Lock()
	t.free = append(t.free, net)
	t.mu.Unlock()
}

// flushPool makes the shared pool forget the pipeline that just ran.
// sweep.Pool removes a finished batch from its open list by shifting the
// slice, which leaves the last batches reachable through the slice's spare
// capacity until new batches overwrite them — and through their closures
// the whole snapshot cache, 2.7 GB here. Untraced rounds overwrite them at
// once (the next pipeline submits its batches up front); the traced twin
// would run on top of them, page-faulting for every array it allocates.
// n parked batches, open together, overwrite n slots. (The pool should
// clear the slot itself; this harness may not change it.)
func flushPool(n int) {
	release := make(chan struct{})
	batches := make([]*sweep.Batch, n)
	for i := range batches {
		batches[i] = sweep.Shared().Submit(1, sweep.RunOpts{}, func(int) { <-release })
	}
	close(release)
	for _, b := range batches {
		b.Wait(nil) //nolint:errcheck // nothing cancels these
	}
}

// tracedSweep resumes the finished checkpoint (zero simulations), then
// runs the same 75 points through a benchmark-owned per-point body on the
// shared pool, one span per call into a layer.
func tracedSweep(c *runCtx, donePath string, untracedWall float64) error {
	rec, tr := c.rec, c.tr
	root := tr.begin(c.rec.workload, "", -1)
	defer tr.end(root)
	ms := func(s float64) float64 { return s * 1e3 }

	// Resume: reload the checkpoint, restore every point from it.
	pipe, base := sweepPipeline(c)
	flushPool(len(pipe.Tasks))
	var ck *sweep.Checkpoint
	var err error
	settle()
	rec.set("sweep.ckpt_open_ms", ms(tr.time("sweep.OpenCheckpoint", "reload", root, func() {
		ck, err = sweep.OpenCheckpoint(donePath, pipe.Fingerprint())
	})))
	if err != nil {
		return err
	}
	fresh := 0
	var results []experiments.TaskResult
	rec.set("experiments.resume_ms", ms(tr.time("Pipeline.Run", "resume", root, func() {
		results, err = pipe.Run(context.Background(), ck, func(p experiments.Progress) {
			if !p.PointRestored {
				fresh++ // restores are reported from Run's own goroutine
			}
		})
	})))
	if !rec.check(err, "Pipeline.Run (resume)") {
		return err
	}
	rec.op(fresh == 0, "resuming a finished checkpoint simulated %d points", fresh)
	parts, err := renderResults(rec, results, base.Topology.A)
	if err != nil {
		return err
	}
	rec.op(digestOf(parts...) == c.digest, "resumed digest differs from the fresh run's")
	if st, err := os.Stat(donePath); err == nil {
		rec.set("sweep.ckpt_bytes_per_record", float64(st.Size())/float64(ck.Len()))
	}
	if err := ck.Close(); err != nil {
		return err
	}

	// One construction build alone, for its allocation footprint: deltas
	// of TotalAlloc mean nothing while two pool workers allocate.
	settle()
	tcfg := pipe.Tasks[0].Grid.Base
	tcfg.Mechanism, tcfg.Pattern, tcfg.Load = "In-Trns-MM", "UN", c.sz.SweepLoads[0]
	rec.set("sim.build_alloc_mb", allocMB(func() { _, err = sim.NewSnapshot(tcfg, 0) }))
	if err != nil {
		return err
	}

	// The decomposed pipeline. fig3 owns no simulations: it is rendered
	// from fig2c's records, as experiments.Pipeline does.
	pipe, _ = sweepPipeline(c)
	path := filepath.Join(c.workdir, "sweep-traced.jsonl")
	if ck, err = sweep.OpenCheckpoint(path, pipe.Fingerprint()); err != nil {
		return err
	}
	type job struct{ task, point int }
	var jobs []job
	recs := make([][]sweep.Record, len(pipe.Tasks))
	for ti, t := range pipe.Tasks {
		if strings.HasPrefix(t.Name, "fig3") {
			continue
		}
		recs[ti] = make([]sweep.Record, len(t.Points()))
		for pi := range recs[ti] {
			jobs = append(jobs, job{ti, pi})
		}
	}
	rec.op(len(jobs) == pipe.TotalPoints(), "decomposed pipeline has %d points, Pipeline has %d", len(jobs), pipe.TotalPoints())

	var mu sync.Mutex
	templates := make(map[string]*template)
	settle()
	start := nanotime()
	err = sweep.Shared().Run(len(jobs), sweep.RunOpts{MaxParallel: procs}, func(k int) {
		t := pipe.Tasks[jobs[k].task]
		pt := t.Points()[jobs[k].point]
		id := fmt.Sprintf("%s/%s/%s/%g", t.Name, pt.Mechanism, pt.Pattern, pt.Load)
		ps := tr.begin("point", id, root)
		defer tr.end(ps)
		t0 := nanotime()

		cfg := t.Grid.Base
		cfg.Mechanism, cfg.Pattern, cfg.Load, cfg.Seed = pt.Mechanism, pt.Pattern, pt.Load, pt.Seed
		key := fmt.Sprintf("%s|%s|%d|%+v", cfg.Mechanism, cfg.Pattern, cfg.Seed, cfg.Router)
		mu.Lock()
		tm := templates[key]
		if tm == nil {
			tm = &template{}
			templates[key] = tm
		}
		mu.Unlock()
		tm.once.Do(func() {
			bcfg := cfg
			bcfg.Load = t.Grid.Loads[0]
			tr.time("sim.NewSnapshot", id, ps, func() { tm.snap, tm.err = sim.NewSnapshot(bcfg, 0) })
		})
		sample := sweep.Sample{Point: pt, Reuse: "construct", Err: tm.err}
		if tm.err == nil {
			old := tm.take()
			name := "sim.RestoreNetworkInto"
			if old == nil {
				name = "sim.RestoreNetwork" // a worker's allocating first restore
			}
			var net *sim.Network
			tr.time(name, id, ps, func() { net, sample.Err = sim.RestoreNetworkInto(tm.snap, &cfg, old) })
			if sample.Err == nil {
				tr.time("sim.RunNetwork", id, ps, func() { sample.Err = sim.RunNetwork(net, &cfg) })
			}
			if sample.Err == nil {
				tr.time("sim.NewResultFrom", id, ps, func() {
					sample.Result = sim.NewResultFrom(net, &cfg, time.Duration(nanotime()-t0))
				})
				tm.put(net)
			}
		}
		var r sweep.Record
		tr.time("sweep.RecordOf", id, ps, func() { r = sweep.RecordOf(t.Name, sample) })
		var putErr error
		tr.time("Checkpoint.Put", id, ps, func() { putErr = ck.Put(r) })
		rec.op(r.Err == "", "point %s: %s", id, r.Err)
		rec.check(putErr, "Checkpoint.Put")
		recs[jobs[k].task][jobs[k].point] = r
	})
	if err != nil {
		return err
	}

	parts = parts[:0]
	for ti, t := range pipe.Tasks {
		src := recs[ti]
		if src == nil { // fig3: the In-Trns-MM subset of fig2c's records
			byPoint := make(map[sweep.Point]sweep.Record)
			for _, r := range recs[taskIndex(pipe, strings.Replace(t.Name, "fig3", "fig2c", 1))] {
				byPoint[r.Point] = r
			}
			for _, pt := range t.Points() {
				src = append(src, byPoint[pt])
			}
		}
		var series []sweep.Series
		tr.time("sweep.AggregateRecords", t.Name, root, func() { series, err = sweep.AggregateRecords(src) })
		if !rec.check(err, "AggregateRecords "+t.Name) {
			continue
		}
		var out []byte
		tr.time("report.render", t.Name, root, func() { out, err = renderTask(t, series, base.Topology.A) })
		if err != nil {
			return err
		}
		parts = append(parts, []byte(t.Name), out)
	}
	if err := ck.Close(); err != nil {
		return err
	}
	tracedWall := secondsSince(start)
	rec.op(digestOf(parts...) == c.digest, "traced digest differs from untraced")
	rec.set("bench.trace_overhead", tracedWall/untracedWall-1)

	builds := tr.durations("sim.NewSnapshot")
	rec.setN("sim.build_ms", ms(median(builds)), len(builds))
	rec.set("sweep.templates_built", float64(len(builds)))
	runs := tr.durations("sim.RunNetwork")
	rec.set("sim.measure_s", sum(runs))
	rec.set("sweep.nonsim_share", 1-sum(runs)/sum(tr.durations("point")))
	first := tr.durations("sim.RestoreNetwork")
	rec.setN("sim.restore_first_ms", ms(median(first)), len(first))
	recycled := tr.durations("sim.RestoreNetworkInto")
	rec.setN("sim.restore_ms", ms(median(recycled)), len(recycled))
	if p50, err := percentile(recycled, 50); rec.check(err, "sweep.restore_ms_p50") {
		rec.setN("sweep.restore_ms_p50", ms(p50), len(recycled))
	}
	extract := tr.durations("sim.NewResultFrom")
	rec.setN("sim.result_ms", ms(median(extract)), len(extract))
	puts := tr.durations("Checkpoint.Put")
	if p50, err := percentile(puts, 50); rec.check(err, "sweep.ckpt_put_ms_p50") {
		rec.setN("sweep.ckpt_put_ms_p50", ms(p50), len(puts))
	}
	if p85, err := percentile(puts, 85); rec.check(err, "sweep.ckpt_put_ms_p85") {
		rec.setN("sweep.ckpt_put_ms_p85", ms(p85), len(puts))
	}
	rec.set("sweep.aggregate_ms", ms(sum(tr.durations("sweep.AggregateRecords"))))
	rec.set("report.csv_ms", ms(sum(tr.durations("report.render"))))
	return nil
}

func taskIndex(p *experiments.Pipeline, name string) int {
	for i, t := range p.Tasks {
		if t.Name == name {
			return i
		}
	}
	panic("benchmark: pipeline has no task " + name)
}

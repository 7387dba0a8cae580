package scheduler

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// The streaming scheduler core: runs a GenTrace of 100k–1M jobs with
// retained memory bounded by the jobs concurrently in the system, not by
// trace length. Three things make that true:
//
//   - the trace itself is structure-of-arrays (~20 B/job, see generate.go);
//   - jobs are admitted into a workload.NewDynamicStream lazily, right
//     before placement, and retired (state reclaimed) right after release —
//     and a streaming workload reports NumJobs() == 0, so the network never
//     builds its O(jobs × routers) per-job attribution arrays;
//   - per-job outcomes fold into fixed-memory accumulators at departure
//     (stats.Sketch quantiles + scalar sums) instead of a per-job slice.
//
// The controller implements sim.Finisher, so the run ends at the last
// departure rather than a fixed measure window: the horizon in the Config
// is a cap, not the run length.

// streamJob is one running job's state — the only per-job state retained
// while a job is in the system, dropped at departure.
type streamJob struct {
	idx   int32 // trace index
	wlJob int32 // workload job index, for Release/Retire
	need  int32 // routers occupied
	start int64
	end   int64 // start + duration
	nodes []int // activated node ids: the workload's own slice, lent until Retire
}

// genController is the sim.Controller + sim.Finisher that schedules a
// generated trace under a discipline. Its decisions go through the same
// planStarts core as the replay controller, so the two agree start-cycle
// for start-cycle on any trace both can run (enforced by
// TestStreamMatchesDetailed).
type genController struct {
	wl      *workload.Workload
	gt      *GenTrace
	disc    string
	load    float64
	perR    int         // nodes per router (topology P), for router demand
	nextArr int         // next trace index not yet arrived
	queue   []int32     // arrived, waiting; trace indices in arrival order
	running []streamJob // placed, not departed; in placement order

	// Fixed-memory outcome accumulators (see StreamResult).
	wait, run, slow          stats.Sketch
	waitSum, runSum, slowSum float64
	busy                     int64 // completed jobs' node-cycles
	started, completed       int
	lastDeparture            int64
	peakRunning, peakQueue   int

	// planStarts scratch, reused across events.
	qScratch []qJob
	rScratch []rJob
	plan     planScratch

	// Test hooks: called at placement and departure when non-nil.
	onPlace    func(idx int, now int64)
	onComplete func(idx int, now int64)
}

// streamTestHook, when set by an in-package test, sees each run's
// controller before the network is built — the seam the stream-vs-detailed
// equivalence and memory-flatness tests install their probes through.
var streamTestHook func(*genController)

// NextEvent implements sim.Controller: the next arrival or the earliest
// running job's departure. Every generated duration is a cycle budget, so
// there is never a per-cycle polling fallback.
func (c *genController) NextEvent(now int64) int64 {
	next := int64(-1)
	add := func(t int64) {
		if t <= now {
			t = now + 1
		}
		if next < 0 || t < next {
			next = t
		}
	}
	if c.nextArr < c.gt.Len() {
		add(c.gt.Arrival[c.nextArr])
	}
	for i := range c.running {
		add(c.running[i].end)
	}
	return next
}

// Finished implements sim.Finisher: the trace is done when every job has
// arrived, started and departed. All three change only inside Apply, so it
// can first turn true only at a NextEvent cycle, as the contract requires.
func (c *genController) Finished(now int64) bool {
	return c.nextArr >= c.gt.Len() && len(c.queue) == 0 && len(c.running) == 0
}

// Apply implements sim.Controller: departures (fold outcome, release,
// retire), then arrivals, then placement via planStarts — the same event
// order as the replay controller, so a same-cycle arrival can recycle a
// freed allocation.
func (c *genController) Apply(rc *sim.Reconfig, now int64) {
	for i := 0; i < len(c.running); {
		if now < c.running[i].end {
			i++
			continue
		}
		c.depart(rc, i, now)
		c.running = append(c.running[:i], c.running[i+1:]...)
	}
	for c.nextArr < c.gt.Len() && c.gt.Arrival[c.nextArr] <= now {
		c.queue = append(c.queue, int32(c.nextArr))
		c.nextArr++
	}
	if len(c.queue) > c.peakQueue {
		c.peakQueue = len(c.queue)
	}
	if len(c.queue) == 0 {
		return
	}
	c.qScratch = c.qScratch[:0]
	for _, idx := range c.queue {
		c.qScratch = append(c.qScratch, qJob{need: c.needOf(int(idx)), dur: c.gt.Duration[idx]})
	}
	c.rScratch = c.rScratch[:0]
	for i := range c.running {
		c.rScratch = append(c.rScratch, rJob{need: int(c.running[i].need), end: c.running[i].end})
	}
	picks := c.plan.planStarts(c.disc, now, c.wl.FreeRouters(), c.qScratch, c.rScratch)
	if len(picks) == 0 {
		return
	}
	for _, k := range picks {
		c.place(rc, int(c.queue[k]), now)
	}
	kept := c.queue[:0]
	pi := 0
	for i, idx := range c.queue {
		if pi < len(picks) && picks[pi] == i {
			pi++
			continue
		}
		kept = append(kept, idx)
	}
	c.queue = kept
	if len(c.running) > c.peakRunning {
		c.peakRunning = len(c.running)
	}
}

// needOf returns the router demand of trace job idx.
func (c *genController) needOf(idx int) int {
	return (int(c.gt.Nodes[idx]) + c.perR - 1) / c.perR
}

// place admits, allocates and activates trace job idx at cycle now.
func (c *genController) place(rc *sim.Reconfig, idx int, now int64) {
	spec := c.gt.jobSpec(idx)
	spec.Name = "j" // anonymous: names are not identity in streaming mode
	j, err := c.wl.Admit(spec)
	if err != nil {
		// runGenerated pre-validated every (pattern, size) pair.
		panic(fmt.Sprintf("scheduler: admitting pre-validated job: %v", err))
	}
	if err := c.wl.Place(j); err != nil {
		panic(fmt.Sprintf("scheduler: placing job that planStarts fit: %v", err))
	}
	nodes := c.wl.JobNodes(j)
	for _, n := range nodes {
		rc.SetNodeActive(n, c.load)
	}
	c.running = append(c.running, streamJob{
		idx:   int32(idx),
		wlJob: int32(j),
		need:  int32(c.wl.RoutersFor(j)),
		start: now,
		end:   now + c.gt.Duration[idx],
		nodes: nodes,
	})
	c.started++
	wait := float64(now - c.gt.Arrival[idx])
	c.wait.Observe(wait)
	c.waitSum += wait
	if c.onPlace != nil {
		c.onPlace(idx, now)
	}
}

// depart folds running job i's outcome into the accumulators, silences its
// nodes, and releases and retires its workload state.
func (c *genController) depart(rc *sim.Reconfig, i int, now int64) {
	sj := &c.running[i]
	run := float64(sj.end - sj.start)
	c.run.Observe(run)
	c.runSum += run
	wait := float64(sj.start - c.gt.Arrival[sj.idx])
	sd := (wait + run) / run
	c.slow.Observe(sd)
	c.slowSum += sd
	c.busy += int64(c.gt.Nodes[sj.idx]) * (sj.end - sj.start)
	c.completed++
	if now > c.lastDeparture {
		c.lastDeparture = now
	}
	for _, n := range sj.nodes {
		rc.SetNodeSilent(n)
	}
	c.wl.Release(int(sj.wlJob))
	c.wl.Retire(int(sj.wlJob))
	if c.onComplete != nil {
		c.onComplete(int(sj.idx), now)
	}
}

// StreamResult is the bounded-memory outcome of a generated-trace run: the
// usual network measurement plus trace-level aggregates — no per-job slice.
type StreamResult struct {
	Sim        *sim.Result `json:"sim"`
	Discipline string      `json:"discipline"`
	// Jobs, Started, Completed count the trace population and how far it
	// got within the horizon (Started includes Completed).
	Jobs      int `json:"jobs"`
	Started   int `json:"started"`
	Completed int `json:"completed"`
	// LastDeparture is the cycle of the final departure (-1: none);
	// RanCycles is how long the run actually was — last departure + 1 when
	// the trace drained, the configured horizon when it was cut off.
	LastDeparture int64 `json:"last_departure"`
	RanCycles     int64 `json:"ran_cycles"`
	// WaitMean is over started jobs; RunMean and SlowdownMean over
	// completed ones (0 when none).
	WaitMean     float64 `json:"wait_mean"`
	RunMean      float64 `json:"run_mean"`
	SlowdownMean float64 `json:"slowdown_mean"`
	// Wait, RunTime and Slowdown are the streaming quantile sketches the
	// per-job records were folded into (wait observed at start, the others
	// at completion). Excluded from JSON — serialize with
	// stats.Sketch.AppendBinary where persistence is needed.
	Wait     stats.Sketch `json:"-"`
	RunTime  stats.Sketch `json:"-"`
	Slowdown stats.Sketch `json:"-"`
	// Utilization is busy node-cycles (censored jobs' partial runs
	// included) over machine node-cycles for the cycles actually run.
	Utilization float64 `json:"utilization"`
	// PeakRunning and PeakQueue bound the scheduler's retained state.
	PeakRunning int `json:"peak_running"`
	PeakQueue   int `json:"peak_queue"`
	// RetainedBytes is the live heap at the last departure, when the whole
	// run — trace, controller, workload, network, accumulators — is still
	// reachable. Only measured when StreamOptions.MeasureRetained is set;
	// machine-dependent, so never part of a deterministic summary.
	RetainedBytes uint64 `json:"retained_bytes,omitempty"`
}

// StreamOptions tunes a generated-trace run.
type StreamOptions struct {
	// MeasureRetained fills StreamResult.RetainedBytes, at the cost of a
	// garbage collection at the last departure.
	MeasureRetained bool
}

// RunGenerated schedules a generated trace under the discipline on one
// simulation. The run ends at the last departure (the controller is a
// sim.Finisher); cfg's warm-up + measure cycles only cap it. Deterministic
// in (gt, disc, cfg.Seed) and bit-identical for any cfg.Workers.
func RunGenerated(cfg sim.Config, gt *GenTrace, disc string) (*StreamResult, error) {
	return RunGeneratedOpts(cfg, gt, disc, StreamOptions{})
}

// RunGeneratedOpts is RunGenerated with explicit options.
func RunGeneratedOpts(cfg sim.Config, gt *GenTrace, disc string, opts StreamOptions) (*StreamResult, error) {
	return runGenerated(cfg, gt, disc, opts, coreImpl)
}

// runGenerated is RunGenerated on an explicit implementation, so the
// equivalence tests can run one trace on every engine.
func runGenerated(cfg sim.Config, gt *GenTrace, disc string, opts StreamOptions, im simImpl) (*StreamResult, error) {
	disc = strings.ToLower(strings.TrimSpace(disc))
	if disc == "" {
		disc = DisciplineFCFS
	}
	if err := ValidateDiscipline(disc); err != nil {
		return nil, err
	}
	if gt.Len() == 0 {
		return nil, fmt.Errorf("scheduler: generated trace has no jobs")
	}
	t := topology.New(cfg.Topology)
	p := t.Params()
	pattern := gt.Spec.Pattern
	if pattern == "" {
		pattern = "UN"
	}
	for i := 0; i < gt.Len(); i++ {
		n := int(gt.Nodes[i])
		if need := (n + p.P - 1) / p.P; need > t.NumRouters() {
			return nil, fmt.Errorf("scheduler: generated job %d needs %d routers but the machine has %d: it can never start",
				i, need, t.NumRouters())
		}
		if err := workload.ValidatePattern(pattern, n); err != nil {
			return nil, fmt.Errorf("scheduler: generated job %d (%d nodes): %w", i, n, err)
		}
	}
	wl := workload.NewDynamicStream(t, cfg.Seed)
	c := &genController{
		wl:            wl,
		gt:            gt,
		disc:          disc,
		load:          gt.Spec.Load,
		perR:          p.P,
		lastDeparture: -1,
	}
	var retained uint64
	if opts.MeasureRetained {
		c.onComplete = func(idx int, now int64) {
			if c.completed == c.gt.Len() {
				// Two collections: the first only moves sync.Pool contents
				// (engine scratch from earlier runs in this process) to the
				// victim cache; the second reclaims them.
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				retained = ms.HeapAlloc
			}
		}
	}
	if streamTestHook != nil {
		streamTestHook(c)
	}
	net, err := im.build(&cfg, wl)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := im.drive(net, &cfg, c); err != nil {
		return nil, err
	}
	simRes := sim.NewResultFrom(net, &cfg, time.Since(start))
	ran := cfg.WarmupCycles + simRes.MeasuredCycles

	res := &StreamResult{
		Sim:           simRes,
		Discipline:    disc,
		Jobs:          gt.Len(),
		Started:       c.started,
		Completed:     c.completed,
		LastDeparture: c.lastDeparture,
		RanCycles:     ran,
		Wait:          c.wait,
		RunTime:       c.run,
		Slowdown:      c.slow,
		PeakRunning:   c.peakRunning,
		PeakQueue:     c.peakQueue,
		RetainedBytes: retained,
	}
	if c.started > 0 {
		res.WaitMean = c.waitSum / float64(c.started)
	}
	if c.completed > 0 {
		res.RunMean = c.runSum / float64(c.completed)
		res.SlowdownMean = c.slowSum / float64(c.completed)
	}
	// Censored jobs (still running at the horizon) contribute their partial
	// node-cycles to utilization.
	busy := c.busy
	for i := range c.running {
		busy += int64(c.gt.Nodes[c.running[i].idx]) * (ran - c.running[i].start)
	}
	if ran > 0 {
		res.Utilization = float64(busy) / (float64(t.NumNodes()) * float64(ran))
	}
	return res, nil
}

package scheduler

import (
	"fmt"
	"runtime"

	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// Generated traces run in streaming mode: a GenTrace of 100k–1M jobs with
// retained memory bounded by the jobs concurrently in the system, not by
// trace length. Three things make that true:
//
//   - the trace itself is structure-of-arrays (~20 B/job, see generate.go);
//   - the source admits a job into a workload.NewDynamicStream lazily, right
//     before placement, and the loop retires it (state reclaimed) right
//     after release — and a streaming workload reports NumJobs() == 0, so
//     the network never builds its O(jobs × routers) per-job attribution
//     arrays;
//   - the sink folds per-job outcomes into fixed-memory accumulators at
//     departure (stats.Sketch quantiles + scalar sums) instead of a per-job
//     slice.
//
// Under a lazy source the controller is a sim.Finisher, so the run ends at
// the last departure rather than a fixed measure window: the horizon in the
// Config is a cap, not the run length.

// genSource is the lazy source: the trace's arrays are already in arrival
// order, every duration is a cycle budget (so the loop never polls), and a
// job exists in the workload only from placement to departure.
type genSource struct {
	*GenTrace
	wl   *workload.Workload
	perR int // nodes per router (topology P), for router demand
}

func (s *genSource) arrival(i int) int64 { return s.Arrival[i] }

func (s *genSource) demand(i int) (need int, cycles, packets int64) {
	return workload.RoutersNeeded(int(s.Nodes[i]), s.perR), s.Duration[i], 0
}

func (s *genSource) admit(i int) int {
	spec := s.jobSpec(i)
	spec.Name = "j" // anonymous: names are not identity in streaming mode
	j, err := s.wl.Admit(spec)
	if err != nil {
		// runGenerated pre-validated every (pattern, size) pair.
		panic(fmt.Sprintf("scheduler: admitting pre-validated job: %v", err))
	}
	return j
}

// foldSink is RunGenerated's sink: it folds each job's outcome into the
// StreamResult's fixed-memory accumulators instead of keeping a record.
type foldSink struct {
	gt                       *GenTrace
	res                      *StreamResult
	waitSum, runSum, slowSum float64
	busy                     int64 // completed jobs' node-cycles
	measureRetained          bool
}

func (f *foldSink) started(i, _ int, now int64) {
	f.res.Started++
	wait := float64(now - f.gt.Arrival[i])
	f.res.Wait.Observe(wait)
	f.waitSum += wait
}

func (f *foldSink) departed(i, _ int, start, now int64) {
	run := float64(now - start)
	f.res.RunTime.Observe(run)
	f.runSum += run
	sd := (float64(start-f.gt.Arrival[i]) + run) / run
	f.res.Slowdown.Observe(sd)
	f.slowSum += sd
	f.busy += int64(f.gt.Nodes[i]) * (now - start)
	f.res.Completed++
	f.res.LastDeparture = max(f.res.LastDeparture, now)
	if f.measureRetained && f.res.Completed == f.gt.Len() {
		// Two collections: the first only moves what sits in the
		// standard library's sync.Pools to their victim caches; the
		// second reclaims it. The network's free packets are on its own
		// list, not in a pool, and count as retained.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		f.res.RetainedBytes = ms.HeapAlloc
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
	// stats.Sketch.MarshalBinary where persistence is needed.
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
	disc, err := normDiscipline(disc)
	if err != nil {
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
		if need := workload.RoutersNeeded(n, p.P); need > t.NumRouters() {
			return nil, fmt.Errorf("scheduler: generated job %d needs %d routers but the machine has %d: it can never start",
				i, need, t.NumRouters())
		}
		if err := workload.ValidatePattern(pattern, n); err != nil {
			return nil, fmt.Errorf("scheduler: generated job %d (%d nodes): %w", i, n, err)
		}
	}
	wl := workload.NewDynamicStream(t, cfg.Seed)
	res := &StreamResult{Discipline: disc, Jobs: gt.Len(), LastDeparture: -1}
	f := &foldSink{gt: gt, res: res, measureRetained: opts.MeasureRetained}
	c := &controller{wl: wl, src: &genSource{gt, wl, p.P}, out: f, disc: disc, lazy: true}
	if _, res.Sim, err = c.simulate(&cfg, im); err != nil {
		return nil, err
	}
	res.PeakRunning, res.PeakQueue = c.peakRunning, c.peakQueue
	// The cycles the run executed: a drained trace stopped it right after
	// the last departure; anything else ran to the horizon.
	res.RanCycles = cfg.WarmupCycles + cfg.MeasureCycles
	if c.drained() {
		res.RanCycles = res.LastDeparture + 1
	}
	if res.Started > 0 {
		res.WaitMean = f.waitSum / float64(res.Started)
	}
	if res.Completed > 0 {
		res.RunMean = f.runSum / float64(res.Completed)
		res.SlowdownMean = f.slowSum / float64(res.Completed)
	}
	// Censored jobs (still running at the horizon) contribute their partial
	// node-cycles to utilization.
	busy := f.busy
	for i := range c.running {
		busy += int64(gt.Nodes[c.running[i].idx]) * (res.RanCycles - c.running[i].start)
	}
	res.Utilization = float64(busy) / (float64(t.NumNodes()) * float64(res.RanCycles))
	return res, nil
}

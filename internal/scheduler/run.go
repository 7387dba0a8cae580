package scheduler

import (
	"fmt"
	"math"
	"sort"

	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// JobResult is one job's scheduler lifecycle. Cycles are absolute
// simulation cycles (warm-up included); -1 marks events that never happened
// within the run (a job that never started, or never completed).
type JobResult struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	// Alloc echoes the job's allocation policy for reports.
	Alloc      string `json:"alloc"`
	Arrival    int64  `json:"arrival"`
	Start      int64  `json:"start"`
	Completion int64  `json:"completion"`
	// Wait is Start-Arrival; Run is Completion-Start; both -1 when the
	// bounding event never happened.
	Wait int64 `json:"wait"`
	Run  int64 `json:"run"`
	// Slowdown is (Wait+Run)/Run, the classic scheduling metric (1 = ran
	// as if alone and unqueued in time); 0 for jobs that never completed.
	Slowdown float64 `json:"slowdown,omitempty"`
	// Delivered counts the job's packets delivered over its whole lifetime
	// (warm-up included — the live counter, not the measurement window).
	Delivered int64 `json:"delivered_packets"`
	// Routers is the job's allocation (empty if it never started).
	Routers []int `json:"routers,omitempty"`
}

// Result is the outcome of a scheduled run: the network-level measurement
// (Sim, over the configured measurement window) plus the per-job lifecycle
// and the trace-level aggregates.
type Result struct {
	// Sim carries the usual per-router and per-job network metrics. For
	// jobs that departed before the run ended, Sim's end-of-run node
	// attribution (JobNodes, jobRouters) is empty — use the lifecycle
	// records here instead.
	Sim        *sim.Result `json:"sim"`
	Discipline string      `json:"discipline"`
	Jobs       []JobResult `json:"jobs"`
	// Completed counts jobs that departed within the run; Makespan is the
	// completion cycle of the last one (-1 when none completed).
	Completed int   `json:"completed"`
	Makespan  int64 `json:"makespan"`
	// TotalCycles echoes warm-up + measured cycles, the horizon lifecycle
	// cycles are relative to.
	TotalCycles int64 `json:"total_cycles"`
}

// SlowdownQuantile returns the q-quantile of the completed jobs' slowdowns
// (0.5 = median, 0.99 = tail), or 0 when no job completed.
func (r *Result) SlowdownQuantile(q float64) float64 {
	s := make([]float64, 0, len(r.Jobs))
	for i := range r.Jobs {
		if r.Jobs[i].Slowdown > 0 {
			s = append(s, r.Jobs[i].Slowdown)
		}
	}
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// MeanSlowdown returns the mean slowdown over completed jobs (0 when none).
func (r *Result) MeanSlowdown() float64 {
	var sum float64
	n := 0
	for i := range r.Jobs {
		if r.Jobs[i].Slowdown > 0 {
			sum += r.Jobs[i].Slowdown
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Run replays the trace on one simulation under cfg. The run spans the
// configured warm-up + measured cycles; jobs whose lifecycle extends beyond
// it are reported censored (Completion -1). Deterministic in cfg.Seed and
// bit-identical for any cfg.Workers.
func Run(cfg sim.Config, tr Trace) (*Result, error) {
	return run(cfg, tr, coreImpl)
}

// replay is the eager source: a Trace whose every job is admitted into a
// named workload up front, so job indices (trace positions) and per-job
// network accounting are fixed for the run.
type replay struct {
	wl    *workload.Workload
	trace Trace // normalized
	order []int // trace positions sorted by (arrival, trace position)
}

// newReplay normalizes the trace, admits every job, in trace order, into a
// fresh dynamic workload over t — which validates the job specs — and
// builds the arrival order.
func newReplay(t *topology.Topology, tr Trace, seed uint64) (*replay, error) {
	norm, err := tr.normalized()
	if err != nil {
		return nil, err
	}
	s := &replay{wl: workload.NewDynamic(t, seed), trace: norm, order: make([]int, len(norm.Jobs))}
	for i := range norm.Jobs {
		j, err := s.wl.Admit(norm.Jobs[i].JobSpec)
		if err != nil {
			return nil, err
		}
		if need := s.wl.RoutersFor(j); need > t.NumRouters() {
			return nil, fmt.Errorf("scheduler: job %q needs %d routers but the machine has %d: it can never start",
				s.wl.JobName(j), need, t.NumRouters())
		}
		s.order[i] = j
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return norm.Jobs[s.order[a]].Arrival < norm.Jobs[s.order[b]].Arrival
	})
	return s, nil
}

func (s *replay) Len() int            { return len(s.order) }
func (s *replay) arrival(i int) int64 { return s.trace.Jobs[s.order[i]].Arrival }
func (s *replay) admit(i int) int     { return s.order[i] }

func (s *replay) demand(i int) (need int, cycles, packets int64) {
	j := s.order[i]
	need, cycles = s.wl.RoutersFor(j), -1
	switch tj := &s.trace.Jobs[j]; tj.DurationKind {
	case durationCycles:
		cycles = tj.Duration
	case DurationPackets:
		packets = tj.Duration
	}
	return need, cycles, packets
}

// records is Run's sink: it keeps every job's start and completion cycle,
// in the per-job records the Result reports.
type records []JobResult

func (l records) started(_, j int, now int64)     { l[j].Start = now }
func (l records) departed(_, j int, _, now int64) { l[j].Completion = now }

// run is Run on an explicit implementation, so the equivalence tests can
// replay one trace on the core and on the dense oracle alike.
func run(cfg sim.Config, tr Trace, im simImpl) (*Result, error) {
	src, err := newReplay(topology.New(cfg.Topology), tr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	wl, jobs := src.wl, src.trace.Jobs
	res := &Result{
		Discipline:  src.trace.Discipline,
		Jobs:        make([]JobResult, len(jobs)),
		Makespan:    -1,
		TotalCycles: cfg.WarmupCycles + cfg.MeasureCycles,
	}
	for j := range res.Jobs {
		res.Jobs[j] = JobResult{Arrival: jobs[j].Arrival, Start: -1, Completion: -1, Wait: -1, Run: -1}
	}
	c := &controller{wl: wl, src: src, out: records(res.Jobs), disc: res.Discipline}
	net, simRes, err := c.simulate(&cfg, im)
	if err != nil {
		return nil, err
	}
	res.Sim = simRes
	for j := range res.Jobs {
		jr := &res.Jobs[j]
		jr.Name = wl.JobName(j)
		jr.Nodes = wl.JobSpecOf(j).Nodes
		jr.Alloc = wl.JobSpecOf(j).Alloc
		jr.Delivered = net.LiveJobDelivered(j, nil)
		jr.Routers = wl.JobRouters(j)
		if jr.Start >= 0 {
			jr.Wait = jr.Start - jr.Arrival
		}
		if jr.Completion >= 0 {
			jr.Run = jr.Completion - jr.Start
			jr.Slowdown = float64(jr.Wait+jr.Run) / float64(jr.Run)
			res.Completed++
			res.Makespan = max(res.Makespan, jr.Completion)
		}
	}
	return res, nil
}

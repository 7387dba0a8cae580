package scheduler

import (
	"math"
	"sort"
	"time"

	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
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
	// attribution (JobNodes, JobRouters) is empty — use the lifecycle
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

// simImpl is how a replay builds and drives its network. Production is
// coreImpl; the equivalence tests substitute the dense oracle's pair.
type simImpl struct {
	build func(*sim.Config, traffic.Pattern) (*sim.Network, error)
	drive func(*sim.Network, *sim.Config, sim.Controller) error
}

var coreImpl = simImpl{sim.NewNetwork, sim.RunNetworkWithController}

// run is Run on an explicit implementation, so the equivalence tests can
// replay one trace on the core and on the dense oracle alike.
func run(cfg sim.Config, tr Trace, im simImpl) (*Result, error) {
	norm, err := tr.normalized()
	if err != nil {
		return nil, err
	}
	ctrl, wl, err := newController(topology.New(cfg.Topology), norm, cfg.Seed)
	if err != nil {
		return nil, err
	}
	net, err := im.build(&cfg, wl)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := im.drive(net, &cfg, ctrl); err != nil {
		return nil, err
	}
	simRes := sim.NewResultFrom(net, &cfg, time.Since(start))

	res := &Result{
		Sim:         simRes,
		Discipline:  norm.Discipline,
		Jobs:        make([]JobResult, len(ctrl.jobs)),
		Makespan:    -1,
		TotalCycles: cfg.WarmupCycles + cfg.MeasureCycles,
	}
	for j := range ctrl.jobs {
		st := &ctrl.jobs[j]
		jr := JobResult{
			Name:       wl.JobName(j),
			Nodes:      wl.JobSpecOf(j).Nodes,
			Alloc:      wl.JobSpecOf(j).Alloc,
			Arrival:    st.arrival,
			Start:      st.start,
			Completion: st.completion,
			Wait:       -1,
			Run:        -1,
			Delivered:  net.LiveJobDelivered(j, nil),
			Routers:    st.routers,
		}
		if st.start >= 0 {
			jr.Wait = st.start - st.arrival
		}
		if st.completion >= 0 {
			jr.Run = st.completion - st.start
			jr.Slowdown = float64(jr.Wait+jr.Run) / float64(jr.Run)
			res.Completed++
			if st.completion > res.Makespan {
				res.Makespan = st.completion
			}
		}
		res.Jobs[j] = jr
	}
	return res, nil
}

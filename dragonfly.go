// Package dragonfly is a cycle-driven simulator of Dragonfly interconnection
// networks, built to reproduce "Throughput Unfairness in Dragonfly Networks
// under Realistic Traffic Patterns" (Fuentes, Vallejo, Camarero, Beivide,
// Valero — IEEE CLUSTER 2015).
//
// The library models canonical Dragonflies (complete graphs at both levels,
// palmtree global link arrangement), FOGSim-style input/output-buffered
// routers with virtual channels, credit-based virtual cut-through flow
// control and an iterative separable allocator, and the full set of routing
// mechanisms the paper evaluates: minimal (MIN), oblivious Valiant
// (Obl-RRG/Obl-CRG), PiggyBack source-adaptive (Src-RRG/Src-CRG) and
// in-transit adaptive with the RRG, CRG and MM global misrouting policies.
// Traffic generators cover uniform (UN), adversarial (ADV+i) and the paper's
// adversarial-consecutive (ADVc) patterns.
//
// # Quick start
//
//	cfg := dragonfly.DefaultConfig()
//	cfg.Mechanism = "In-Trns-MM"
//	cfg.Pattern = "ADVc"
//	cfg.Load = 0.4
//	res, err := dragonfly.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Throughput(), res.AvgLatency(), res.Fairness().CoV)
//
// Multi-point studies (load sweeps, per-router fairness, latency
// breakdowns, the solo/paired interference matrix) all execute on one
// process-wide sweep worker pool (internal/sweep), so concurrent studies
// share a single machine-level scheduler; cmd/dfexperiments runs the
// paper's whole evaluation section on it as a checkpointed, resumable
// pipeline. The executables in cmd/ (dfsim, dfsweep, dfsched,
// dfexperiments, dfserved, dfbench) wrap these APIs. See README.md for
// the repository map, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-vs-measured record.
package dragonfly

import (
	"dragonfly/internal/router"
	"dragonfly/internal/routing"
	"dragonfly/internal/scheduler"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/sweep"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// Config describes one simulation run. It is an alias of the internal
// simulator configuration; construct it with DefaultConfig or PaperConfig
// and adjust fields.
type Config = sim.Config

// Result holds the measurements of one run.
type Result = sim.Result

// Fairness bundles the Section IV-B unfairness metrics.
type Fairness = stats.Fairness

// Breakdown is the Figure 3 latency decomposition.
type Breakdown = stats.Breakdown

// TopologyParams describes a canonical Dragonfly (p, a, h, arrangement).
type TopologyParams = topology.Params

// Arbitration selects the router allocator policy: RoundRobin,
// TransitOverInjection, or AgeBased.
type Arbitration = router.Arbitration

// Re-exported arbitration policies.
const (
	RoundRobin           = router.RoundRobin
	TransitOverInjection = router.TransitOverInjection
	AgeBased             = router.AgeBased
)

// DefaultConfig returns a laptop-scale configuration (balanced h=2
// Dragonfly, Table I router parameters).
func DefaultConfig() Config { return sim.DefaultConfig() }

// PaperConfig returns the paper's full Table I configuration: h=6, 73
// groups, 5,256 nodes, 15,000 measured cycles.
func PaperConfig() Config { return sim.PaperConfig() }

// Balanced returns the balanced Dragonfly parameters (p=h, a=2h) for a
// given h. Balanced(6) is the paper's network.
func Balanced(h int) TopologyParams { return topology.Balanced(h) }

// Run executes one simulation. It is deterministic in cfg.Seed and
// bit-identical for any cfg.Workers value.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// Mechanisms lists the registered routing mechanism names accepted by
// Config.Mechanism.
func Mechanisms() []string { return routing.Names() }

// NewNetwork exposes network construction for advanced callers that drive
// cycles manually (see examples/quickstart for the ordinary entry point).
func NewNetwork(cfg *Config) (*sim.Network, error) { return sim.NewNetwork(cfg, nil) }

// WorkloadSpec describes a multi-job workload: jobs with sizes, allocation
// policies, intra-job patterns and phase schedules. See internal/workload.
type WorkloadSpec = workload.Spec

// WorkloadJob describes one job of a workload.
type WorkloadJob = workload.JobSpec

// CompileWorkload places the spec's jobs on cfg's topology and returns the
// compiled workload (node-level pattern plus node→job map). Compilation is
// deterministic in cfg.Seed.
func CompileWorkload(cfg Config, spec WorkloadSpec) (*workload.Workload, error) {
	return workload.Compile(topology.New(cfg.Topology), spec, cfg.Seed)
}

// RunCompiledWorkload runs a simulation driven by an already-compiled
// workload. The result carries per-job throughput, latency and fairness
// next to the global metrics (Result.JobNames, JobThroughput,
// JobAvgLatency, JobFairness).
func RunCompiledWorkload(cfg Config, wl *workload.Workload) (*Result, error) {
	return sim.RunWorkload(cfg, wl)
}

// RunWorkload is CompileWorkload followed by RunCompiledWorkload — the
// one-call form for callers that do not need the compiled placement.
func RunWorkload(cfg Config, spec WorkloadSpec) (*Result, error) {
	wl, err := CompileWorkload(cfg, spec)
	if err != nil {
		return nil, err
	}
	return RunCompiledWorkload(cfg, wl)
}

// JobSoloLatencies runs every job of the compiled workload alone — exact
// placement and job index preserved (Workload.Solo) — on the sweep worker
// pool (workers ≤ 0: NumCPU) and returns each job's solo average latency:
// the baseline both interference metrics divide by. Callers combining
// several metrics should compute it once and reuse it.
func JobSoloLatencies(cfg Config, wl *workload.Workload, workers int) ([]float64, error) {
	n := wl.NumJobs()
	solo := make([]float64, n)
	errs := make([]error, n)
	sweep.Shared().Run(n, sweep.RunOpts{MaxParallel: workers}, func(j int) {
		res, err := sim.RunWorkload(cfg, wl.Solo(j))
		if err != nil {
			errs[j] = err
			return
		}
		solo[j] = res.JobAvgLatency(j)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return solo, nil
}

// JobInterferenceFromSolo derives the per-job interference ratios from an
// already-run full-workload result and precomputed solo latencies: entry j
// is job j's average latency in the full mix divided by its solo latency
// (1 = no interference; 0 when the job delivered nothing in either run).
func JobInterferenceFromSolo(full *Result, solo []float64) []float64 {
	out := make([]float64, len(solo))
	for j := range out {
		if mixed := full.JobAvgLatency(j); mixed > 0 && solo[j] > 0 {
			out[j] = mixed / solo[j]
		}
	}
	return out
}

// JobInterferenceMatrixFromSolo quantifies pairwise inter-job interference
// as the N×N solo-vs-paired matrix, from the solo latencies
// JobSoloLatencies returns: entry [i][j] (i ≠ j) is job i's average
// latency when i and j run paired — alone together on the machine, with
// their exact workload placements — divided by job i's solo latency, so
// row i reads "how much each other job hurts i" and column j reads "whom j
// hurts". Diagonal entries are 1 by definition (0 when the job delivered
// nothing solo). The N·(N-1)/2 paired simulations run on the sweep worker
// pool (workers ≤ 0: NumCPU).
func JobInterferenceMatrixFromSolo(cfg Config, wl *workload.Workload, solo []float64, workers int) ([][]float64, error) {
	n := wl.NumJobs()
	type task struct{ i, j int }
	tasks := make([]task, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			tasks = append(tasks, task{i: i, j: j})
		}
	}
	results := make([]*Result, len(tasks))
	errs := make([]error, len(tasks))
	sweep.Shared().Run(len(tasks), sweep.RunOpts{MaxParallel: workers}, func(k int) {
		results[k], errs[k] = sim.RunWorkload(cfg, wl.Subset(tasks[k].i, tasks[k].j))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		if solo[i] > 0 {
			m[i][i] = 1
		}
	}
	for k, t := range tasks {
		// One paired run prices both directions: i as victim of j, and
		// j as victim of i.
		if lat := results[k].JobAvgLatency(t.i); lat > 0 && solo[t.i] > 0 {
			m[t.i][t.j] = lat / solo[t.i]
		}
		if lat := results[k].JobAvgLatency(t.j); lat > 0 && solo[t.j] > 0 {
			m[t.j][t.i] = lat / solo[t.j]
		}
	}
	return m, nil
}

// ScheduleTrace is a timed job trace for the dynamic scheduler: jobs with
// arrival cycles, durations (cycle budgets or packets-delivered targets)
// and workload placement/traffic specs, run under a queueing discipline
// ("fcfs", "backfill" or "easy"). See internal/scheduler and cmd/dfsched.
type ScheduleTrace = scheduler.Trace

// ScheduleJob is one job of a ScheduleTrace.
type ScheduleJob = scheduler.TraceJob

// ScheduleResult is the outcome of RunSchedule: the network-level
// measurement plus per-job wait/run/slowdown lifecycles and makespan.
type ScheduleResult = scheduler.Result

// RunSchedule replays a timed job trace on one simulation: arriving jobs
// are placed with the workload allocation policies, departing jobs free
// their routers for recycling, and each job's wait, run and slowdown are
// recorded next to the usual metrics. Membership changes happen only
// between cycles, so scheduled runs are deterministic in cfg.Seed and
// bit-identical for any cfg.Workers — and a trace whose jobs all arrive at
// cycle 0 and never depart reproduces RunWorkload exactly.
func RunSchedule(cfg Config, trace ScheduleTrace) (*ScheduleResult, error) {
	return scheduler.Run(cfg, trace)
}

// GenSpec parameterises a synthetic cluster trace: Poisson arrivals ×
// lognormal job size and duration. See scheduler.GenSpec.
type GenSpec = scheduler.GenSpec

// GenTrace is a generated trace in structure-of-arrays form (~20 B/job).
type GenTrace = scheduler.GenTrace

// StreamResult is the bounded-memory outcome of RunGeneratedTrace: counts,
// means, streaming quantile sketches and utilization — no per-job slice.
type StreamResult = scheduler.StreamResult

// GenerateTrace synthesizes a seeded trace. The result is a deterministic
// function of (spec, seed) alone — same inputs, byte-identical trace.
func GenerateTrace(spec GenSpec, seed uint64) (*GenTrace, error) {
	return scheduler.Generate(spec, seed)
}

// RunGeneratedTrace schedules a generated trace under a discipline on the
// streaming scheduler core: per-job state is retired at departure and
// outcomes fold into fixed-memory accumulators, so 100k–1M-job traces run
// with memory bounded by the jobs concurrently in the system, not the
// trace length. The run ends at the last departure; the configured cycles
// only cap it. Deterministic in (trace, discipline, cfg.Seed) and
// bit-identical for any cfg.Workers.
func RunGeneratedTrace(cfg Config, gt *GenTrace, disc string) (*StreamResult, error) {
	return scheduler.RunGenerated(cfg, gt, disc)
}

// RunWithAppTraffic runs a simulation whose traffic is uniform inside an
// application allocated on `groups` consecutive groups starting at group
// `first` — the Section III job-scheduler use case that turns uniform
// application traffic into ADVc network traffic. It is the one-job
// degenerate case of RunWorkload.
func RunWithAppTraffic(cfg Config, first, groups int) (*Result, error) {
	return RunWorkload(cfg, workload.AppSpec(cfg.Topology, first, groups))
}

package sim

import (
	"time"

	"dragonfly/internal/stats"
	"dragonfly/internal/telemetry"
)

// Result holds the measurements of one simulation run.
type Result struct {
	// Mechanism and Pattern are the resolved display names.
	Mechanism string
	Pattern   string
	// OfferedLoad is the configured injection rate (phits/node/cycle).
	OfferedLoad float64
	// Nodes and MeasuredCycles scale the throughput metrics.
	Nodes          int
	MeasuredCycles int64
	// PerRouter holds one accumulator per router (index = router id).
	PerRouter []stats.Router
	// RoutersPerGroup lets callers slice PerRouter by group.
	RoutersPerGroup int
	// Multi-job workload attribution (empty for single-workload runs):
	// JobNames and JobNodes describe the jobs, PerRouterJobs holds each
	// router's per-job accumulators (outer index = router id), and
	// JobRouters lists the routers hosting at least one node of each job.
	JobNames      []string
	JobNodes      []int
	PerRouterJobs [][]stats.Job
	JobRouters    [][]int
	// Wall is the wall-clock duration of the run.
	Wall time.Duration
	// Seed echoes the run's seed.
	Seed uint64
	// Telemetry is the probe-run summary when Config.Probes was set
	// (nil otherwise). The full time-series goes to the probe writer;
	// this is the reduced view that travels with the result.
	Telemetry *telemetry.Summary
}

func newResult(net *Network, cfg *Config, wall time.Duration) *Result {
	// A Finisher-stopped run measured fewer cycles than configured; scale
	// the per-cycle metrics by what actually ran past warm-up.
	measured := cfg.MeasureCycles
	if net.stoppedAt > 0 {
		measured = net.stoppedAt - cfg.WarmupCycles
		if measured < 1 {
			measured = 1
		}
	}
	res := &Result{
		Mechanism:       net.mech.Name(),
		Pattern:         net.pattern.Name(),
		OfferedLoad:     cfg.Load,
		Nodes:           net.Topo.NumNodes(),
		MeasuredCycles:  measured,
		PerRouter:       make([]stats.Router, net.Topo.NumRouters()),
		RoutersPerGroup: cfg.Topology.A,
		Wall:            wall,
		Seed:            cfg.Seed,
		Telemetry:       net.telemetry,
	}
	for i := range res.PerRouter {
		res.PerRouter[i] = *net.fab.Stats(i)
	}
	if jm := net.jobs; jm != nil {
		nj := jm.NumJobs()
		res.JobNames = make([]string, nj)
		for j := range res.JobNames {
			res.JobNames[j] = jm.JobName(j)
		}
		res.JobNodes = make([]int, nj)
		res.JobRouters = make([][]int, nj)
		p := net.Topo.Params()
		for r := range res.PerRouter {
			hosted := make([]bool, nj)
			for i := 0; i < p.P; i++ {
				if j := net.nodeJob[r*p.P+i]; j >= 0 {
					res.JobNodes[j]++
					hosted[j] = true
				}
			}
			for j, h := range hosted {
				if h {
					res.JobRouters[j] = append(res.JobRouters[j], r)
				}
			}
		}
		res.PerRouterJobs = make([][]stats.Job, len(res.PerRouter))
		for i := range res.PerRouterJobs {
			res.PerRouterJobs[i] = append([]stats.Job(nil), net.fab.JobStats(i)...)
		}
	}
	return res
}

// NewResultFrom builds a Result from an externally driven network run —
// the entry point for tools that call RunNetwork (or an oracle engine)
// directly and time it.
func NewResultFrom(net *Network, cfg *Config, wall time.Duration) *Result {
	return newResult(net, cfg, wall)
}

// total returns the network-wide merged accumulator.
func (r *Result) total() stats.Router {
	var t stats.Router
	for i := range r.PerRouter {
		t.Merge(&r.PerRouter[i])
	}
	return t
}

// Throughput returns the accepted load in phits/(node·cycle) — the y-axis
// of the right-hand plots of Figures 2 and 5.
func (r *Result) Throughput() float64 {
	t := r.total()
	return float64(t.DeliveredPhits) / (float64(r.Nodes) * float64(r.MeasuredCycles))
}

// AvgLatency returns the mean packet latency in cycles — the y-axis of the
// left-hand plots of Figures 2 and 5. It returns 0 when nothing was
// delivered.
func (r *Result) AvgLatency() float64 {
	t := r.total()
	if t.Delivered == 0 {
		return 0
	}
	return float64(t.LatencySum) / float64(t.Delivered)
}

// MaxLatency returns the maximum delivered-packet latency in cycles.
func (r *Result) MaxLatency() int64 { return r.total().MaxLatency }

// LatencyQuantile returns an upper-bound estimate of the q-quantile packet
// latency (e.g. 0.99 for p99), from the logarithmic latency histogram.
func (r *Result) LatencyQuantile(q float64) int64 {
	t := r.total()
	return t.Latencies.Quantile(q)
}

// ThroughputBatches returns the accepted load of each batch-means span of
// the measurement window, in phits/(node·cycle).
func (r *Result) ThroughputBatches() []float64 {
	t := r.total()
	out := make([]float64, stats.Batches)
	span := float64(r.MeasuredCycles) / stats.Batches
	for i, phits := range t.BatchPhits {
		out[i] = float64(phits) / (float64(r.Nodes) * span)
	}
	return out
}

// ThroughputCI returns the batch-means estimate of the accepted load with
// its 95% confidence half-width. A wide interval signals the measurement
// window has not reached steady state.
func (r *Result) ThroughputCI() stats.BatchMeans {
	return stats.ComputeBatchMeans(r.ThroughputBatches())
}

// GroupDelivered returns the packets delivered to each router of a group —
// the consumption-side counterpart of GroupInjections.
func (r *Result) GroupDelivered(group int) []int64 {
	out := make([]int64, r.RoutersPerGroup)
	base := group * r.RoutersPerGroup
	for i := range out {
		out[i] = r.PerRouter[base+i].Delivered
	}
	return out
}

// Delivered returns the number of packets delivered in the window.
func (r *Result) Delivered() int64 { return r.total().Delivered }

// Generated returns the number of packets generated in the window.
func (r *Result) Generated() int64 { return r.total().Generated }

// Backlogged returns generation attempts refused by full source queues.
func (r *Result) Backlogged() int64 { return r.total().Backlogged }

// Breakdown returns the average latency decomposition of Figure 3.
func (r *Result) Breakdown() stats.Breakdown {
	t := r.total()
	if t.Delivered == 0 {
		return stats.Breakdown{}
	}
	d := float64(t.Delivered)
	return stats.Breakdown{
		Base:       float64(t.BaseSum) / d,
		Misroute:   float64(t.MisrouteSum) / d,
		WaitLocal:  float64(t.WaitLocalSum) / d,
		WaitGlobal: float64(t.WaitGlobalSum) / d,
		WaitInj:    float64(t.WaitInjSum) / d,
	}
}

// Injections returns the per-router injected packet counts for the whole
// network.
func (r *Result) Injections() []int64 {
	out := make([]int64, len(r.PerRouter))
	for i := range r.PerRouter {
		out[i] = r.PerRouter[i].Injected
	}
	return out
}

// GroupInjections returns the injected packet counts of the routers of one
// group, ordered R0..R(a-1) — the bars of Figures 4 and 6.
func (r *Result) GroupInjections(group int) []int64 {
	out := make([]int64, r.RoutersPerGroup)
	base := group * r.RoutersPerGroup
	for i := range out {
		out[i] = r.PerRouter[base+i].Injected
	}
	return out
}

// Fairness returns the Section IV-B fairness metrics over all routers of
// the network, as in Tables II and III.
func (r *Result) Fairness() stats.Fairness {
	return stats.ComputeFairness(r.Injections())
}

// NumJobs returns the number of jobs of a multi-job workload run, or 0.
func (r *Result) NumJobs() int { return len(r.JobNames) }

// JobTotal returns job j's counters merged over all routers.
func (r *Result) JobTotal(j int) stats.Job {
	var t stats.Job
	for i := range r.PerRouterJobs {
		t.Merge(&r.PerRouterJobs[i][j])
	}
	return t
}

// JobThroughput returns job j's accepted load in phits/(node·cycle),
// normalised by the job's own node count so jobs of different sizes are
// comparable.
func (r *Result) JobThroughput(j int) float64 {
	if r.JobNodes[j] == 0 {
		return 0
	}
	t := r.JobTotal(j)
	return float64(t.DeliveredPhits) / (float64(r.JobNodes[j]) * float64(r.MeasuredCycles))
}

// JobAvgLatency returns the mean latency in cycles of job j's delivered
// packets (0 when the job delivered nothing).
func (r *Result) JobAvgLatency(j int) float64 {
	t := r.JobTotal(j)
	if t.Delivered == 0 {
		return 0
	}
	return float64(t.LatencySum) / float64(t.Delivered)
}

// JobLatencyQuantile returns an upper-bound estimate of the q-quantile
// latency of job j's delivered packets (e.g. 0.99 for the job's p99), from
// the per-job logarithmic latency histogram.
func (r *Result) JobLatencyQuantile(j int, q float64) int64 {
	t := r.JobTotal(j)
	return t.Latencies.Quantile(q)
}

// JobInjections returns job j's injected packet counts per hosting router,
// in JobRouters[j] order — the per-job counterpart of Injections.
func (r *Result) JobInjections(j int) []int64 {
	out := make([]int64, len(r.JobRouters[j]))
	for i, rid := range r.JobRouters[j] {
		out[i] = r.PerRouterJobs[rid][j].Injected
	}
	return out
}

// JobFairness returns the fairness metrics computed over job j's per-router
// injections, restricted to the routers hosting the job — intra-job
// throughput fairness, the per-job analogue of Tables II and III.
func (r *Result) JobFairness(j int) stats.Fairness {
	return stats.ComputeFairness(r.JobInjections(j))
}

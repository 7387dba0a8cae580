package sim

import (
	"math"
	"slices"
	"time"

	"dragonfly/internal/stats"
	"dragonfly/internal/telemetry"
)

// Result holds the measurements of one simulation run: the network-wide
// accumulator every reported metric is derived from, and the two counters
// reported per router. The paper's per-router quantity is injections (the
// bars of Figures 4 and 6, the fairness of Tables II and III); throughput,
// latency, its quantiles and the Figure 3 breakdown are network-wide, so a
// router's full accumulator stays in the network's fabric.
type Result struct {
	// Mechanism and Pattern are the resolved display names.
	Mechanism string
	Pattern   string
	// OfferedLoad is the configured injection rate (phits/node/cycle).
	OfferedLoad float64
	// Nodes and MeasuredCycles scale the throughput metrics.
	Nodes          int
	MeasuredCycles int64
	// Total is every router's accumulator merged: the network's counters,
	// latency sums and histogram, and batch-means spans.
	Total stats.Router
	// RouterInjected and routerDelivered are each router's Injected and
	// Delivered counters (index = router id).
	RouterInjected  []int64
	routerDelivered []int64
	// routersPerGroup lets callers slice the per-router counts by group.
	routersPerGroup int
	// Multi-job workload attribution (empty for single-workload runs):
	// JobNames and JobNodes describe the jobs, jobRouters lists the routers
	// hosting at least one node of each job, jobTotals holds each job's
	// accumulators merged over all routers, and jobRouterInjected each job's
	// injected packets per hosting router, in jobRouters order.
	JobNames          []string
	JobNodes          []int
	jobRouters        [][]int
	jobTotals         []stats.Job
	jobRouterInjected [][]int64
	// Wall is the wall-clock duration of the run.
	Wall time.Duration
	// Seed echoes the run's seed.
	Seed uint64
	// Telemetry is the probe-run summary when Config.Probes was set
	// (nil otherwise). The full time-series goes to the probe writer;
	// this is the reduced view that travels with the result.
	Telemetry *telemetry.Summary
	// window is the configured measurement window, over which the fabric
	// laid out the batch-means spans (stats.BatchIndex). A Finisher-stopped
	// run measured only its first MeasuredCycles cycles.
	window int64
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
	n := net.topo.NumRouters()
	res := &Result{
		Mechanism:       net.mech.Name(),
		Pattern:         net.patternName(),
		OfferedLoad:     cfg.Load,
		Nodes:           net.topo.NumNodes(),
		MeasuredCycles:  measured,
		RouterInjected:  make([]int64, n),
		routerDelivered: make([]int64, n),
		routersPerGroup: cfg.Topology.A,
		Wall:            wall,
		Seed:            cfg.Seed,
		Telemetry:       net.telemetry,
		window:          cfg.MeasureCycles,
	}
	for r := range n {
		st := net.fab.Stats(r)
		res.Total.Merge(st)
		res.RouterInjected[r] = st.Injected
		res.routerDelivered[r] = st.Delivered
	}
	if net.numJobs() > 0 {
		res.addJobs(net)
	}
	return res
}

// addJobs fills in the per-job attribution of a multi-job workload run:
// which routers host each job at the end of the run, and each job's
// accumulators merged over every router.
func (res *Result) addJobs(net *Network) {
	nj := net.numJobs()
	res.JobNames = make([]string, nj)
	for j := range res.JobNames {
		res.JobNames[j] = net.wl.JobName(j)
	}
	res.JobNodes = make([]int, nj)
	res.jobRouters = make([][]int, nj)
	res.jobTotals = make([]stats.Job, nj)
	res.jobRouterInjected = make([][]int64, nj)
	p := net.topo.Params().P
	hosted := make([]bool, nj)
	for r := range net.topo.NumRouters() {
		clear(hosted)
		for _, j := range net.nodeJob[r*p : (r+1)*p] {
			if j >= 0 {
				res.JobNodes[j]++
				hosted[j] = true
			}
		}
		js := net.fab.JobStats(r)
		for j, h := range hosted {
			res.jobTotals[j].Merge(&js[j])
			if h {
				res.jobRouters[j] = append(res.jobRouters[j], r)
				res.jobRouterInjected[j] = append(res.jobRouterInjected[j], js[j].Injected)
			}
		}
	}
}

// NewResultFrom builds a Result from an externally driven network run —
// the entry point for tools that call RunNetwork (or an oracle engine)
// directly and time it.
func NewResultFrom(net *Network, cfg *Config, wall time.Duration) *Result {
	return newResult(net, cfg, wall)
}

// Throughput returns the accepted load in phits/(node·cycle) — the y-axis
// of the right-hand plots of Figures 2 and 5.
func (r *Result) Throughput() float64 {
	return float64(r.Total.DeliveredPhits) / (float64(r.Nodes) * float64(r.MeasuredCycles))
}

// AvgLatency returns the mean packet latency in cycles — the y-axis of the
// left-hand plots of Figures 2 and 5. It returns 0 when nothing was
// delivered.
func (r *Result) AvgLatency() float64 {
	if r.Total.Delivered == 0 {
		return 0
	}
	return float64(r.Total.LatencySum) / float64(r.Total.Delivered)
}

// MaxLatency returns the maximum delivered-packet latency in cycles.
func (r *Result) MaxLatency() int64 { return r.Total.MaxLatency }

// LatencyQuantile returns an upper-bound estimate of the q-quantile packet
// latency (e.g. 0.99 for p99), from the logarithmic latency histogram.
func (r *Result) LatencyQuantile(q float64) int64 {
	return r.Total.Latencies.Quantile(q)
}

// throughputBatches returns the accepted load of each batch-means span of
// the measurement window, in phits/(node·cycle). The spans divide the
// configured window, so a Finisher-stopped run reports only the spans it
// reached, each over the cycles of it that ran.
func (r *Result) throughputBatches() []float64 {
	nodes := float64(r.Nodes)
	if r.MeasuredCycles >= r.window {
		out := make([]float64, stats.Batches)
		span := float64(r.MeasuredCycles) / stats.Batches
		for i, phits := range r.Total.BatchPhits {
			out[i] = float64(phits) / (nodes * span)
		}
		return out
	}
	var out []float64
	for i, phits := range r.Total.BatchPhits {
		lo := batchStart(i, r.window)
		if lo >= r.MeasuredCycles {
			break
		}
		hi := min(batchStart(i+1, r.window), r.MeasuredCycles)
		out = append(out, float64(phits)/(nodes*float64(hi-lo)))
	}
	return out
}

// batchStart returns the first measured cycle (counted from the warm-up's
// end) that stats.BatchIndex assigns to span i of a window cycles long:
// ceil(i·window/Batches), computed without overflowing int64.
func batchStart(i int, window int64) int64 {
	k := int64(i)
	return k*(window/stats.Batches) + (k*(window%stats.Batches)+stats.Batches-1)/stats.Batches
}

// ThroughputCI returns the batch-means estimate of the accepted load with
// its 95% confidence half-width. A wide interval signals the measurement
// window has not reached steady state. A run stopped inside its first span
// has no interval: the half-width is +Inf.
func (r *Result) ThroughputCI() stats.BatchMeans {
	batches := r.throughputBatches()
	ci := stats.ComputeBatchMeans(batches)
	if len(batches) < 2 {
		ci.HalfCI95 = math.Inf(1)
	}
	return ci
}

// Delivered returns the number of packets delivered in the window.
func (r *Result) Delivered() int64 { return r.Total.Delivered }

// Generated returns the number of packets generated in the window.
func (r *Result) Generated() int64 { return r.Total.Generated }

// Backlogged returns generation attempts refused by full source queues.
func (r *Result) Backlogged() int64 { return r.Total.Backlogged }

// Breakdown returns the average latency decomposition of Figure 3.
func (r *Result) Breakdown() stats.Breakdown {
	t := &r.Total
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
func (r *Result) Injections() []int64 { return slices.Clone(r.RouterInjected) }

// GroupInjections returns the injected packet counts of the routers of one
// group, ordered R0..R(a-1) — the bars of Figures 4 and 6.
func (r *Result) GroupInjections(group int) []int64 {
	return slices.Clone(r.groupSlice(r.RouterInjected, group))
}

// groupSlice returns the entries of a per-router slice that belong to the
// routers of one group.
func (r *Result) groupSlice(perRouter []int64, group int) []int64 {
	base := group * r.routersPerGroup
	return perRouter[base : base+r.routersPerGroup]
}

// Fairness returns the Section IV-B fairness metrics over all routers of
// the network, as in Tables II and III.
func (r *Result) Fairness() stats.Fairness {
	return stats.ComputeFairness(r.RouterInjected)
}

// NumJobs returns the number of jobs of a multi-job workload run, or 0.
func (r *Result) NumJobs() int { return len(r.JobNames) }

// JobTotal returns job j's counters merged over all routers.
func (r *Result) JobTotal(j int) stats.Job { return r.jobTotals[j] }

// JobThroughput returns job j's accepted load in phits/(node·cycle),
// normalised by the job's own node count so jobs of different sizes are
// comparable.
func (r *Result) JobThroughput(j int) float64 {
	if r.JobNodes[j] == 0 {
		return 0
	}
	return float64(r.jobTotals[j].DeliveredPhits) / (float64(r.JobNodes[j]) * float64(r.MeasuredCycles))
}

// JobAvgLatency returns the mean latency in cycles of job j's delivered
// packets (0 when the job delivered nothing).
func (r *Result) JobAvgLatency(j int) float64 {
	t := &r.jobTotals[j]
	if t.Delivered == 0 {
		return 0
	}
	return float64(t.LatencySum) / float64(t.Delivered)
}

// JobFairness returns the fairness metrics computed over job j's per-router
// injections, restricted to the routers hosting the job — intra-job
// throughput fairness, the per-job analogue of Tables II and III.
func (r *Result) JobFairness(j int) stats.Fairness {
	return stats.ComputeFairness(r.jobRouterInjected[j])
}

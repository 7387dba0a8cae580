// Package stats holds the measurement machinery of the simulator: the
// per-router accumulators updated on the hot path, the latency breakdown of
// Figure 3, and the throughput-fairness metrics of Section IV-B (minimum
// injection, max-to-min ratio, coefficient of variation), plus Jain's
// fairness index as a supplementary metric.
//
// All accumulators use integer arithmetic so results are bit-exact across
// the sequential and parallel engines regardless of execution order.
package stats

import "math"

// Router accumulates the per-router counters of one simulation. Injection
// counters are updated by the source router, delivery counters by the
// destination router, so each instance has a single writer even in the
// parallel engine.
type Router struct {
	// Injected counts packets that left this router's injection queues
	// (won injection allocation) during the measurement window — the
	// quantity plotted per router in Figures 4 and 6.
	Injected int64
	// Generated counts packets created at this router's nodes during the
	// measurement window (the offered load actually realised).
	Generated int64
	// Backlogged counts generation attempts refused because the source
	// queue was full.
	Backlogged int64

	// Delivered counts packets consumed at this router's nodes during
	// the measurement window; DeliveredPhits is the same in phits.
	Delivered      int64
	DeliveredPhits int64

	// Latency accumulators over delivered packets (cycles).
	LatencySum    int64
	MaxLatency    int64
	BaseSum       int64
	MisrouteSum   int64
	WaitInjSum    int64
	WaitLocalSum  int64
	WaitGlobalSum int64

	// Latencies is a logarithmic histogram of delivered-packet latencies
	// for percentile reporting.
	Latencies Histogram

	// BatchPhits splits DeliveredPhits across Batches equal spans of the
	// measurement window, for batch-means confidence intervals.
	BatchPhits [Batches]int64

	// LastActivity is the last cycle this router granted an allocation
	// or delivered a packet; the engine's deadlock watchdog reads it.
	LastActivity int64
}

// Merge adds other's counters into r.
func (r *Router) Merge(other *Router) {
	r.Injected += other.Injected
	r.Generated += other.Generated
	r.Backlogged += other.Backlogged
	r.Delivered += other.Delivered
	r.DeliveredPhits += other.DeliveredPhits
	r.LatencySum += other.LatencySum
	if other.MaxLatency > r.MaxLatency {
		r.MaxLatency = other.MaxLatency
	}
	r.BaseSum += other.BaseSum
	r.MisrouteSum += other.MisrouteSum
	r.WaitInjSum += other.WaitInjSum
	r.WaitLocalSum += other.WaitLocalSum
	r.WaitGlobalSum += other.WaitGlobalSum
	r.Latencies.merge(&other.Latencies)
	for i := range r.BatchPhits {
		r.BatchPhits[i] += other.BatchPhits[i]
	}
	if other.LastActivity > r.LastActivity {
		r.LastActivity = other.LastActivity
	}
}

// Job accumulates per-job counters inside one router, attributed by the
// packet's source node. Injection-side counters (Generated, Backlogged,
// Injected) are written by the job node's own router, delivery-side
// counters by the destination router, so — like Router — every instance has
// a single writer even under the parallel engine, and per-router instances
// are merged after the run.
type Job struct {
	Generated      int64
	Backlogged     int64
	Injected       int64
	Delivered      int64
	DeliveredPhits int64
	LatencySum     int64
	MaxLatency     int64

	// Latencies is the per-job logarithmic latency histogram, so workload
	// runs can report per-job percentiles (p50/p99 — the SLO metrics)
	// next to the averages.
	Latencies Histogram
}

// Merge adds other's counters into j.
func (j *Job) Merge(other *Job) {
	j.Generated += other.Generated
	j.Backlogged += other.Backlogged
	j.Injected += other.Injected
	j.Delivered += other.Delivered
	j.DeliveredPhits += other.DeliveredPhits
	j.LatencySum += other.LatencySum
	if other.MaxLatency > j.MaxLatency {
		j.MaxLatency = other.MaxLatency
	}
	j.Latencies.merge(&other.Latencies)
}

// Breakdown is the average per-packet latency decomposition of Figure 3,
// in cycles. Base + Misroute + WaitInj + WaitLocal + WaitGlobal equals the
// average total latency exactly (an identity tested in the engine tests).
type Breakdown struct {
	Base       float64 // zero-load minimal-path latency
	Misroute   float64 // extra path cost of nonminimal hops
	WaitLocal  float64 // queueing at local transit queues
	WaitGlobal float64 // queueing at global transit queues
	WaitInj    float64 // queueing at the injection queues
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.Base + b.Misroute + b.WaitLocal + b.WaitGlobal + b.WaitInj
}

// Fairness holds the throughput-fairness metrics of Section IV-B computed
// over per-router injection counts.
type Fairness struct {
	MinInj float64 // lowest injections per router ("Min inj")
	MaxInj float64
	MaxMin float64 // max-to-min ratio ("Max/Min"); +Inf when MinInj is 0
	CoV    float64 // coefficient of variation sigma/mu
	Jain   float64 // Jain's fairness index (1 = perfectly fair)
}

// ComputeFairness derives the fairness metrics from per-router injection
// counts. It returns a zero value when counts is empty.
func ComputeFairness(counts []int64) Fairness {
	if len(counts) == 0 {
		return Fairness{}
	}
	minV, maxV := counts[0], counts[0]
	var sum, sumSq float64
	for _, c := range counts {
		if c < minV {
			minV = c
		}
		if c > maxV {
			maxV = c
		}
		f := float64(c)
		sum += f
		sumSq += f * f
	}
	n := float64(len(counts))
	mean := sum / n
	f := Fairness{MinInj: float64(minV), MaxInj: float64(maxV)}
	if minV > 0 {
		f.MaxMin = float64(maxV) / float64(minV)
	} else if maxV > 0 {
		f.MaxMin = math.Inf(1)
	} else {
		f.MaxMin = 1 // nothing injected anywhere: degenerate but fair
	}
	if mean > 0 {
		variance := sumSq/n - float64(mean*mean) // rounded: never fused
		if variance < 0 {
			variance = 0 // numeric guard
		}
		f.CoV = math.Sqrt(variance) / mean
		f.Jain = sum * sum / (n * sumSq)
	} else {
		f.Jain = 1
	}
	return f
}

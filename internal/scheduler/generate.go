package scheduler

import (
	"fmt"
	"math"

	"dragonfly/internal/rng"
	"dragonfly/internal/workload"
)

// Seeded synthetic trace generation: Poisson arrivals × lognormal job size
// and duration, the standard parametric model for open-system cluster
// workloads. A GenTrace is a structure-of-arrays trace — ~20 bytes per job,
// no per-job spec structs or names — so a million-job trace costs ~20 MB
// and RunGenerated (stream.go) can schedule it without per-job state.

// genSalt decorrelates the generator's random stream from the simulation
// and compile streams derived from the same seed.
const genSalt = 0x3c79ac492ba7b653

// GenSpec parameterises a synthetic trace. All jobs share the placement
// policy, intra-job pattern and per-node load; arrivals are a Poisson
// process (exponential inter-arrival times) and node counts and durations
// are lognormal, clamped to [2, MaxNodes] and [1, 2^61] respectively.
type GenSpec struct {
	// Jobs is the trace length.
	Jobs int `json:"jobs"`
	// InterArrival is the mean inter-arrival time in cycles.
	InterArrival float64 `json:"inter_arrival"`
	// NodesMedian and NodesSigma are the median and log-space sigma of the
	// lognormal job size (nodes). Sigma 0 makes every job NodesMedian nodes.
	NodesMedian float64 `json:"nodes_median"`
	NodesSigma  float64 `json:"nodes_sigma"`
	// MaxNodes caps the job size — typically the machine's node count, so
	// every generated job can eventually start.
	MaxNodes int `json:"max_nodes"`
	// DurMedian and DurSigma are the median and log-space sigma of the
	// lognormal job duration in cycles.
	DurMedian float64 `json:"dur_median"`
	DurSigma  float64 `json:"dur_sigma"`
	// Load is every job's per-node offered load (0: the run default).
	Load float64 `json:"load,omitempty"`
	// Alloc is the placement policy of every job ("" = consecutive).
	Alloc string `json:"alloc,omitempty"`
	// Pattern is the intra-job traffic pattern of every job ("" = UN).
	Pattern string `json:"pattern,omitempty"`
	// FirstGroup seeds the consecutive/spread allocation scan.
	FirstGroup int `json:"first_group,omitempty"`
}

// validate rejects parameter combinations the generator cannot honour.
func (sp *GenSpec) validate() error {
	// finite is false for +Inf and, like every comparison below, for NaN.
	finite := func(v float64) bool { return v <= math.MaxFloat64 }
	switch {
	case sp.Jobs < 1:
		return fmt.Errorf("scheduler: GenSpec.Jobs must be ≥ 1, got %d", sp.Jobs)
	case !(sp.InterArrival > 0 && finite(sp.InterArrival)):
		return fmt.Errorf("scheduler: GenSpec.InterArrival must be > 0 and finite, got %v", sp.InterArrival)
	case !(sp.NodesMedian >= 1 && finite(sp.NodesMedian)):
		return fmt.Errorf("scheduler: GenSpec.NodesMedian must be ≥ 1 and finite, got %v", sp.NodesMedian)
	case !(sp.NodesSigma >= 0 && finite(sp.NodesSigma) && sp.DurSigma >= 0 && finite(sp.DurSigma)):
		return fmt.Errorf("scheduler: GenSpec sigmas must be ≥ 0 and finite, got nodes %v dur %v", sp.NodesSigma, sp.DurSigma)
	case sp.MaxNodes < 2 || sp.MaxNodes > math.MaxInt32:
		return fmt.Errorf("scheduler: GenSpec.MaxNodes must be in [2, 2^31), got %d", sp.MaxNodes)
	case !(sp.DurMedian >= 1 && finite(sp.DurMedian)):
		return fmt.Errorf("scheduler: GenSpec.DurMedian must be ≥ 1 and finite, got %v", sp.DurMedian)
	}
	return nil
}

// GenTrace is a generated trace in structure-of-arrays form: parallel
// per-job arrays instead of per-job structs, so retained size is ~20 B/job
// regardless of trace length. Arrival is nondecreasing. The workload-level
// fields every job shares live once in Spec.
type GenTrace struct {
	Spec     GenSpec `json:"spec"`
	Seed     uint64  `json:"seed"`
	Arrival  []int64 `json:"arrival"`
	Nodes    []int32 `json:"nodes"`
	Duration []int64 `json:"duration"`
}

// Generate synthesizes a trace from the spec and seed. The result is a
// deterministic function of (spec, seed) alone — same inputs, byte-identical
// trace, on any machine and at any worker count (generation is single-
// streamed; the draws per job are fixed at arrival, size, duration, in that
// order). The placement policy does not influence the draws, so studies
// comparing disciplines × allocation policies at one seed schedule the
// exact same job population.
func Generate(spec GenSpec, seed uint64) (*GenTrace, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	switch spec.Alloc {
	case "", workload.AllocConsecutive, workload.AllocRandom, workload.AllocSpread:
	default:
		return nil, fmt.Errorf("scheduler: GenSpec.Alloc: unknown allocation policy %q (known: %s, %s, %s)",
			spec.Alloc, workload.AllocConsecutive, workload.AllocRandom, workload.AllocSpread)
	}
	gt := &GenTrace{
		Spec:     spec,
		Seed:     seed,
		Arrival:  make([]int64, spec.Jobs),
		Nodes:    make([]int32, spec.Jobs),
		Duration: make([]int64, spec.Jobs),
	}
	rnd := rng.New(seed ^ genSalt)
	t := 0.0
	// Draws are clamped as float64, before the conversion: an out-of-range
	// float-to-integer conversion wraps (or worse) instead of saturating.
	for i := 0; i < spec.Jobs; i++ {
		t += expDraw(rnd, spec.InterArrival)
		gt.Arrival[i] = int64(min(t, maxCycle))
		n := math.Round(spec.NodesMedian * math.Exp(spec.NodesSigma*normDraw(rnd)))
		gt.Nodes[i] = int32(min(max(n, 2), float64(spec.MaxNodes)))
		d := math.Round(spec.DurMedian * math.Exp(spec.DurSigma*normDraw(rnd)))
		gt.Duration[i] = int64(min(max(d, 1), maxCycle))
	}
	return gt, nil
}

// expDraw samples an exponential with the given mean by inversion.
// 1-Float64() is in (0,1], so the log argument is never zero.
func expDraw(rnd *rng.Source, mean float64) float64 {
	return -mean * math.Log(1-rnd.Float64())
}

// normDraw samples a standard normal by Box-Muller, consuming exactly two
// uniforms (the sine partner is discarded so the per-job draw count is a
// constant — the invariant trace determinism rests on).
func normDraw(rnd *rng.Source) float64 {
	u1 := 1 - rnd.Float64() // (0,1]
	u2 := rnd.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Len returns the number of jobs.
func (gt *GenTrace) Len() int { return len(gt.Arrival) }

// jobSpec builds the workload spec of job i — materialised one at a time at
// placement, never stored per job.
func (gt *GenTrace) jobSpec(i int) workload.JobSpec {
	return workload.JobSpec{
		Nodes:      int(gt.Nodes[i]),
		Alloc:      gt.Spec.Alloc,
		FirstGroup: gt.Spec.FirstGroup,
		Pattern:    gt.Spec.Pattern,
		Load:       gt.Spec.Load,
	}
}

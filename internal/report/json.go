package report

import (
	"encoding/json"
	"io"

	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/telemetry"
)

// ResultJSON is the stable machine-readable form of a simulation result,
// written by dfsim -json and consumable by external plotting pipelines.
type ResultJSON struct {
	Mechanism      string    `json:"mechanism"`
	Pattern        string    `json:"pattern"`
	OfferedLoad    float64   `json:"offered_load"`
	AcceptedLoad   float64   `json:"accepted_load"`
	AcceptedCI95   float64   `json:"accepted_load_ci95"` // -1: no interval (sim.Result.ThroughputCI)
	AvgLatency     float64   `json:"avg_latency_cycles"`
	P50Latency     int64     `json:"p50_latency_cycles"`
	P99Latency     int64     `json:"p99_latency_cycles"`
	MaxLatency     int64     `json:"max_latency_cycles"`
	Nodes          int       `json:"nodes"`
	MeasuredCycles int64     `json:"measured_cycles"`
	Seed           uint64    `json:"seed"`
	Delivered      int64     `json:"delivered_packets"`
	Generated      int64     `json:"generated_packets"`
	Backlogged     int64     `json:"backlogged_packets"`
	Breakdown      breakdown `json:"latency_breakdown"`
	Fairness       fairness  `json:"fairness"`
	Injections     []int64   `json:"injections_per_router"`
	WallSeconds    float64   `json:"wall_seconds"`
	// Jobs is present for multi-job workload runs only.
	Jobs []JobJSON `json:"jobs,omitempty"`
	// InterferenceMatrix is the N×N solo-vs-paired latency-ratio matrix
	// (dfworkload -interference-matrix); row = victim, column = paired
	// job. Present only when the matrix was computed.
	InterferenceMatrix [][]float64 `json:"interference_matrix,omitempty"`
	// Telemetry is the probe-run summary, present only when the run
	// sampled telemetry probes.
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
}

// JobJSON is the machine-readable per-job record of a workload run.
type JobJSON struct {
	Name         string   `json:"name"`
	Nodes        int      `json:"nodes"`
	Generated    int64    `json:"generated_packets"`
	Backlogged   int64    `json:"backlogged_packets"`
	Injected     int64    `json:"injected_packets"`
	Delivered    int64    `json:"delivered_packets"`
	Throughput   float64  `json:"accepted_load_per_node"`
	AvgLatency   float64  `json:"avg_latency_cycles"`
	P50Latency   int64    `json:"p50_latency_cycles"`
	P99Latency   int64    `json:"p99_latency_cycles"`
	MaxLatency   int64    `json:"max_latency_cycles"`
	Fairness     fairness `json:"fairness"`
	Interference float64  `json:"interference,omitempty"`
}

type breakdown struct {
	Base             float64 `json:"base"`
	Misroute         float64 `json:"misroute"`
	CongestionLocal  float64 `json:"congestion_local"`
	CongestionGlobal float64 `json:"congestion_global"`
	InjectionQueue   float64 `json:"injection_queue"`
}

type fairness struct {
	MinInj float64 `json:"min_inj"`
	MaxInj float64 `json:"max_inj"`
	MaxMin float64 `json:"max_min"`
	CoV    float64 `json:"cov"`
	Jain   float64 `json:"jain"`
}

// NewResultJSON converts a simulation result.
func NewResultJSON(res *sim.Result) ResultJSON { return NewWorkloadJSON(res, nil) }

// NewWorkloadJSON converts a simulation result, attaching per-job
// interference ratios to the job records when available (pass nil
// otherwise; single-workload runs carry no job records at all).
func NewWorkloadJSON(res *sim.Result, interference []float64) ResultJSON {
	b := res.Breakdown()
	f := res.Fairness()
	return ResultJSON{
		Mechanism:      res.Mechanism,
		Pattern:        res.Pattern,
		OfferedLoad:    res.OfferedLoad,
		AcceptedLoad:   res.Throughput(),
		AcceptedCI95:   sanitize(res.ThroughputCI().HalfCI95),
		AvgLatency:     res.AvgLatency(),
		P50Latency:     res.LatencyQuantile(0.50),
		P99Latency:     res.LatencyQuantile(0.99),
		MaxLatency:     res.MaxLatency(),
		Nodes:          res.Nodes,
		MeasuredCycles: res.MeasuredCycles,
		Seed:           res.Seed,
		Delivered:      res.Delivered(),
		Generated:      res.Generated(),
		Backlogged:     res.Backlogged(),
		Breakdown: breakdown{
			Base:             b.Base,
			Misroute:         b.Misroute,
			CongestionLocal:  b.WaitLocal,
			CongestionGlobal: b.WaitGlobal,
			InjectionQueue:   b.WaitInj,
		},
		Fairness:    newFairnessJSON(f),
		Injections:  res.Injections(),
		WallSeconds: res.Wall.Seconds(),
		Jobs:        newJobsJSON(res, interference),
		Telemetry:   res.Telemetry,
	}
}

// newJobsJSON builds the per-job records; interference may be nil or
// shorter than the job count (missing entries are simply omitted).
func newJobsJSON(res *sim.Result, interference []float64) []JobJSON {
	if res.NumJobs() == 0 {
		return nil
	}
	jobs := make([]JobJSON, res.NumJobs())
	for j := range jobs {
		jt := res.JobTotal(j)
		jobs[j] = JobJSON{
			Name:       res.JobNames[j],
			Nodes:      res.JobNodes[j],
			Generated:  jt.Generated,
			Backlogged: jt.Backlogged,
			Injected:   jt.Injected,
			Delivered:  jt.Delivered,
			Throughput: res.JobThroughput(j),
			AvgLatency: res.JobAvgLatency(j),
			P50Latency: jt.Latencies.Quantile(0.50),
			P99Latency: jt.Latencies.Quantile(0.99),
			MaxLatency: jt.MaxLatency,
			Fairness:   newFairnessJSON(res.JobFairness(j)),
		}
		if j < len(interference) {
			jobs[j].Interference = interference[j]
		}
	}
	return jobs
}

func newFairnessJSON(f stats.Fairness) fairness {
	return fairness{MinInj: f.MinInj, MaxInj: f.MaxInj, MaxMin: sanitize(f.MaxMin), CoV: f.CoV, Jain: f.Jain}
}

// sanitize maps +Inf (a fully starved router, a run with no confidence
// interval) to -1, which JSON can carry.
func sanitize(v float64) float64 {
	if v > 1e300 {
		return -1
	}
	return v
}

// WriteResultJSON writes the result as indented JSON.
func WriteResultJSON(w io.Writer, res *sim.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewResultJSON(res))
}

package main

import (
	"fmt"
	"sync"
)

// Workload names. They are final: BENCHMARK.json, golden.json and later
// issues cite them.
const (
	wlSat   = "run_h6_advc_sat"
	wlLight = "run_h6_un_light"
	wlSweep = "sweep_h6_screen"
	wlServe = "serve_h2_jobs"
	wlSched = "sched_h6_stream"
)

var (
	onRuns  = []string{wlSat, wlLight}
	onSim   = []string{wlSat, wlLight, wlSweep}
	onSweep = []string{wlSweep}
	onServe = []string{wlServe}
	onSched = []string{wlSched}
)

// metricDef declares one metric of the benchmark. The catalog below is the
// harness's source of truth; BENCHMARK.json repeats name, unit and bound
// (the test keeps the two in step).
type metricDef struct {
	Name string
	Unit string
	// Bound is the share of the baseline median an end-to-end metric may
	// worsen by before -compare calls it a regression (0: per-layer).
	Bound float64
	// Exact marks a deterministic count or simulated statistic: two runs
	// with the same seed and size must report the very same value.
	Exact bool
	// Untraced marks a per-layer metric the untraced run already knows (†
	// in the README); the rest need the traced twin.
	Untraced bool
	// Higher marks the few metrics where more is better (rates, reuse);
	// for an exact metric the direction is nominal — it must not move.
	Higher bool
	// On lists the workloads the metric is measured on (nil: all). The
	// contract's JSON line reports 0 for a layer a workload never enters.
	On []string
}

func (d metricDef) endToEnd() bool { return d.Bound > 0 }

func (d metricDef) appliesTo(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// catalog lists every metric, end-to-end first. All end-to-end metrics are
// host-side costs where lower is better.
var catalog = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Bound: 0.15},

	{Name: "bench.trace_overhead", Unit: "ratio"},
	{Name: "bench.loadavg_start", Unit: "load", Untraced: true},

	{Name: "topology.new_ms", Unit: "ms", On: onRuns},

	{Name: "sim.build_ms", Unit: "ms", On: onSim},
	{Name: "sim.build_alloc_mb", Unit: "MB", On: onSim},
	{Name: "sim.warmup_s", Unit: "s", On: onRuns},
	{Name: "sim.measure_s", Unit: "s", On: onSim},
	{Name: "sim.cycles_per_s", Higher: true, Unit: "1/s", On: onRuns},
	{Name: "sim.snapshot_ms", Unit: "ms", On: onRuns},
	{Name: "sim.snapshot_mb", Unit: "MB", On: onRuns},
	{Name: "sim.restore_first_ms", Unit: "ms", On: onSim},
	{Name: "sim.restore_ms", Unit: "ms", On: onSim},
	{Name: "sim.result_ms", Unit: "ms", On: onSim},
	{Name: "sim.par2_ratio", Unit: "ratio", On: onRuns},
	{Name: "sim.probe_overhead", Unit: "ratio", On: onRuns},

	{Name: "router.steps", Unit: "count", Exact: true, Untraced: true, On: onRuns},
	{Name: "router.step_share", Unit: "ratio", Exact: true, Untraced: true, On: onRuns},
	{Name: "router.ns_per_step", Unit: "ns", Untraced: true, On: onRuns},
	{Name: "router.ns_per_phit", Unit: "ns", On: onRuns},
	{Name: "router.peak_inflight", Unit: "count", Exact: true, On: onRuns},
	{Name: "router.peak_queued_phits", Unit: "count", Exact: true, On: onRuns},
	{Name: "router.peak_credit_stalls", Unit: "count", Exact: true, On: onRuns},

	{Name: "routing.misroute_share", Unit: "ratio", Exact: true, Untraced: true, On: onRuns},
	{Name: "routing.pb_flips", Unit: "count", Exact: true, On: onRuns},

	{Name: "stats.accepted_load", Higher: true, Unit: "phits/node/cyc", Exact: true, Untraced: true, On: onRuns},
	{Name: "stats.avg_latency_cycles", Unit: "cycles", Exact: true, Untraced: true, On: onRuns},
	{Name: "stats.cov", Unit: "ratio", Exact: true, Untraced: true, On: onRuns},
	{Name: "stats.bneck_share", Unit: "ratio", Exact: true, Untraced: true, On: onRuns},
	{Name: "stats.ref_err_cov", Unit: "ratio", Exact: true, Untraced: true, On: []string{wlSat}},
	{Name: "stats.ref_err_bneck", Unit: "ratio", Exact: true, Untraced: true, On: []string{wlSat}},

	{Name: "telemetry.samples", Unit: "count", Exact: true, On: onRuns},
	{Name: "telemetry.jsonl_mb", Unit: "MB", Exact: true, On: onRuns},

	{Name: "sweep.points", Unit: "count", Exact: true, Untraced: true, On: onSweep},
	{Name: "sweep.points_per_s", Higher: true, Unit: "1/s", Untraced: true, On: onSweep},
	{Name: "sweep.point_ms_p50", Unit: "ms", Untraced: true, On: onSweep},
	{Name: "sweep.point_ms_p85", Unit: "ms", Untraced: true, On: onSweep},
	{Name: "sweep.pool_efficiency", Higher: true, Unit: "ratio", Untraced: true, On: onSweep},
	{Name: "sweep.templates_built", Unit: "count", Exact: true, On: onSweep},
	{Name: "sweep.nonsim_share", Unit: "ratio", On: onSweep},
	{Name: "sweep.restore_ms_p50", Unit: "ms", On: onSweep},
	{Name: "sweep.ckpt_put_ms_p50", Unit: "ms", On: onSweep},
	{Name: "sweep.ckpt_put_ms_p85", Unit: "ms", On: onSweep},
	{Name: "sweep.ckpt_bytes_per_record", Unit: "B", On: onSweep},
	{Name: "sweep.ckpt_open_ms", Unit: "ms", On: onSweep},
	{Name: "sweep.aggregate_ms", Unit: "ms", On: onSweep},
	{Name: "sweep.store_submit_us", Unit: "us", On: onServe},
	{Name: "sweep.store_lease_us", Unit: "us", On: onServe},
	{Name: "sweep.store_complete_us", Unit: "us", On: onServe},

	{Name: "experiments.spec_normalize_us", Unit: "us", On: onServe},
	{Name: "experiments.fingerprint_us", Unit: "us", On: onServe},
	{Name: "experiments.resume_ms", Unit: "ms", On: onSweep},

	{Name: "report.csv_ms", Unit: "ms", On: onSweep},

	{Name: "serve.job_latency_ms_p50", Unit: "ms", Untraced: true, On: onServe},
	{Name: "serve.job_latency_ms_p75", Unit: "ms", Untraced: true, On: onServe},
	{Name: "serve.cache_hit_ms_p50", Unit: "ms", Untraced: true, On: onServe},
	{Name: "serve.cache_hit_ms_p95", Unit: "ms", Untraced: true, On: onServe},
	{Name: "serve.submit_ms_p50", Unit: "ms", Untraced: true, On: onServe},
	{Name: "serve.csv_ms_p50", Unit: "ms", Untraced: true, On: onServe},
	{Name: "serve.first_lease_ms_p50", Unit: "ms", Untraced: true, On: onServe},
	{Name: "serve.points_per_s", Higher: true, Unit: "1/s", Untraced: true, On: onServe},
	{Name: "serve.points_leased", Unit: "count", Exact: true, Untraced: true, On: onServe},
	{Name: "serve.points_restored", Higher: true, Unit: "count", Exact: true, Untraced: true, On: onServe},
	{Name: "serve.overhead_per_point_ms", Unit: "ms", Untraced: true, On: onServe},
	{Name: "serve.lease_rtt_ms_p50", Unit: "ms", On: onServe},
	{Name: "serve.complete_rtt_ms_p50", Unit: "ms", On: onServe},
	{Name: "serve.restart_ms", Unit: "ms", On: onServe},

	{Name: "scheduler.generate_ms", Unit: "ms", Untraced: true, On: onSched},
	{Name: "scheduler.jobs_per_s", Higher: true, Unit: "1/s", Untraced: true, On: onSched},
	{Name: "scheduler.us_per_job", Unit: "us", Untraced: true, On: onSched},
	{Name: "scheduler.sim_cycles", Unit: "cycles", Exact: true, Untraced: true, On: onSched},
	{Name: "scheduler.util", Unit: "ratio", Exact: true, Untraced: true, On: onSched},
	{Name: "scheduler.wait_mean", Unit: "cycles", Exact: true, Untraced: true, On: onSched},
	{Name: "scheduler.peak_queue", Unit: "count", Exact: true, Untraced: true, On: onSched},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, d := range catalog {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one reported number. N is the sample count behind a
// median or percentile (0: a single measurement or a count).
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
	N     int     `json:"n,omitempty"`
}

// recorder collects one workload run's metrics and its operation counts.
// Setting an undeclared name, or one name twice, is a harness bug and
// panics: every declared name is emitted exactly once.
type recorder struct {
	workload string
	vals     map[string]metricValue

	mu        sync.Mutex // op is called from pool workers
	attempted int64
	failed    int64
	failures  []string
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, vals: make(map[string]metricValue)}
}

func (r *recorder) set(name string, v float64) { r.setN(name, v, 0) }

func (r *recorder) setN(name string, v float64, n int) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalog")
	}
	if !d.appliesTo(r.workload) {
		panic("benchmark: metric " + name + " is not declared for " + r.workload)
	}
	if _, dup := r.vals[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	r.vals[name] = metricValue{Name: name, Value: v, Unit: d.Unit, Exact: d.Exact, N: n}
}

// value returns a metric recorded earlier in the run.
func (r *recorder) value(name string) float64 { return r.vals[name].Value }

// op counts one attempted operation — a simulation, an HTTP exchange, a
// job, an output check — and records why it failed when it did.
func (r *recorder) op(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// check is op for a step whose error is the failure reason.
func (r *recorder) check(err error, what string) bool {
	return r.op(err == nil, "%s: %v", what, err)
}

// missing lists the declared metrics this run should have emitted but did
// not.
func (r *recorder) missing(traced bool) []string {
	var out []string
	for _, d := range catalog {
		if !d.appliesTo(r.workload) || (!traced && !d.endToEnd() && !d.Untraced) {
			continue
		}
		if _, ok := r.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// sorted returns the recorded values in catalog order.
func (r *recorder) sorted() []metricValue {
	out := make([]metricValue, 0, len(r.vals))
	for _, d := range catalog {
		if v, ok := r.vals[d.Name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// contractMetrics is the metrics object of the contract's JSON line: every
// end-to-end metric untraced, every per-layer metric traced, 0 for what the
// run did not measure.
func contractMetrics(measured []metricValue, traced bool) map[string]map[string]any {
	values := make(map[string]float64, len(measured))
	for _, m := range measured {
		values[m.Name] = m.Value
	}
	out := make(map[string]map[string]any)
	for _, d := range catalog {
		if d.endToEnd() != traced {
			out[d.Name] = map[string]any{"value": values[d.Name], "unit": d.Unit}
		}
	}
	return out
}

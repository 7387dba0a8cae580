// Package sweep schedules families of simulations and aggregates their
// results. Its layers:
//
//   - Pool (pool.go): the persistent, process-wide worker pool every
//     multi-run entry point shares — whole simulation runs as tasks of
//     index-ordered batches, with per-batch parallelism bounds, progress
//     callbacks and cooperative cancellation.
//   - Grid: load sweeps over mechanism × pattern × load × seed grids,
//     aggregated into seed-averaged Series the way the paper does
//     ("curves present the average of 3 different simulations",
//     Section IV-A). Grid.RunRecord is the one body of a point that
//     leaves a Record.
//   - Record/Checkpoint (checkpoint.go): portable per-run outcomes
//     persisted as append-only JSONL, and RestoreOrRun (resume.go), the
//     one loop that restores the points a checkpoint holds and runs and
//     persists the rest as a single batch — what makes the figure
//     pipeline and the scheduler study resumable.
//   - Store (store.go): the dfserved job store, which hands points out as
//     expiring leases.
//
// Invariant: results never depend on scheduling. Tasks are handed out in
// index order into index-addressed slots and aggregation folds those slots
// in order, so any worker count — and any interrupt/resume split — yields
// bit-identical output.
package sweep

import (
	"dragonfly/internal/prof"
	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
)

// Point identifies one simulation in a sweep.
type Point struct {
	Mechanism string
	Pattern   string
	Load      float64
	Seed      uint64
}

// Sample is the outcome of one simulation.
type Sample struct {
	Point  Point
	Result *sim.Result
	// Reuse is "construct" for every point a grid ran (empty: it never
	// ran). It stays only while benchmark/ names it.
	Reuse string
	Err   error
}

// Series is a seed-averaged curve point.
type Series struct {
	Mechanism string
	Pattern   string
	Load      float64

	Throughput float64 // mean accepted load, phits/node/cycle
	AvgLatency float64 // mean packet latency, cycles
	Breakdown  stats.Breakdown
	Fairness   stats.Fairness // computed on seed-averaged injections
	Injections []float64      // seed-averaged per-router injections
	Seeds      int
}

// Grid describes a sweep: the cross product of mechanisms, patterns and
// loads, each replicated over Seeds seeds.
type Grid struct {
	Base       sim.Config // template; Mechanism/Pattern/Load/Seed overridden
	Mechanisms []string
	Patterns   []string
	Loads      []float64
	Seeds      []uint64
	// Workers bounds concurrent simulations (default: NumCPU).
	Workers int

	// Snapshots shares prepared network state between the grid's points:
	// one construction snapshot per mechanism/pattern/seed combination,
	// restored per point instead of re-building the topology from scratch.
	// Several grids may share one cache; keys keep their templates apart.
	// Nil gives every Run call a construct cache of its own.
	Snapshots *SnapshotCache
}

// Points expands the grid into its simulation points in deterministic
// order.
func (g *Grid) Points() []Point {
	pts := make([]Point, 0, len(g.Mechanisms)*len(g.Patterns)*len(g.Loads)*len(g.Seeds))
	for _, m := range g.Mechanisms {
		for _, p := range g.Patterns {
			for _, l := range g.Loads {
				for _, s := range g.Seeds {
					pts = append(pts, Point{Mechanism: m, Pattern: p, Load: l, Seed: s})
				}
			}
		}
	}
	return pts
}

// RunPoint executes one simulation point of the grid synchronously: the
// base config with the point's mechanism/pattern/load/seed substituted,
// restored from the grid's snapshot template (a grid without a cache builds
// a template for this point alone).
func (g *Grid) RunPoint(pt Point) Sample {
	cfg := g.Base
	cfg.Mechanism = pt.Mechanism
	cfg.Pattern = pt.Pattern
	cfg.Load = pt.Load
	cfg.Seed = pt.Seed
	c := g.Snapshots
	if c == nil {
		c = &SnapshotCache{}
	}
	res, err := c.Run(cfg)
	return Sample{Point: pt, Result: res, Reuse: "construct", Err: err}
}

// RunRecord is the body of every point that is kept as a Record — the
// figure pipeline's and a dfserved lease's alike: run the point, condense
// the sample under the given checkpoint task namespace, and stamp the
// process CPU time that passed meanwhile.
func (g *Grid) RunRecord(task string, pt Point) Record {
	cpu0 := prof.CPUSeconds()
	rec := RecordOf(task, g.RunPoint(pt))
	rec.CPUSeconds = prof.CPUSeconds() - cpu0
	return rec
}

// Run executes every point of the grid on the shared sweep pool and
// returns the samples in the same deterministic order as Points. A
// per-point error (e.g. a routing deadlock detected by the watchdog) is
// recorded in the sample, not fatal to the sweep. The optional progress
// callback is invoked after each completed simulation with (done, total).
// A grid without a cache shares one across the call, leaving g as it is.
func (g *Grid) Run(progress func(done, total int)) []Sample {
	run := *g
	if run.Snapshots == nil {
		run.Snapshots = &SnapshotCache{}
	}
	pts := run.Points()
	out := make([]Sample, len(pts))
	Shared().Run(len(pts), RunOpts{MaxParallel: run.Workers, Progress: progress}, func(i int) { //nolint:errcheck // no context to cancel it
		out[i] = run.RunPoint(pts[i])
	})
	return out
}

// Aggregate folds samples into seed-averaged series, sorted by
// (mechanism, pattern, load). Samples with errors are skipped; the returned
// error reports the first failure encountered, if any. It is the Sample
// form of AggregateRecords, and bit-identical to it: condensing a sample
// to its Record loses nothing aggregation reads.
func Aggregate(samples []Sample) ([]Series, error) {
	records := make([]Record, len(samples))
	for i, s := range samples {
		records[i] = RecordOf("", s)
	}
	return AggregateRecords(records)
}

// fairnessOfMeans computes the fairness metrics on seed-averaged,
// fractional injection counts — the Table II/III procedure.
func fairnessOfMeans(inj []float64) stats.Fairness {
	// Scale to preserve fractions (e.g. the paper's Min inj 31.67)
	// while reusing the integer implementation at high resolution.
	counts := make([]int64, len(inj))
	for i, v := range inj {
		counts[i] = int64(v*1000 + 0.5)
	}
	f := stats.ComputeFairness(counts)
	f.MinInj /= 1000
	f.MaxInj /= 1000
	return f
}

// Package experiments builds and runs the paper's full evaluation pipeline
// — every figure and table of Section IV as one task graph over the shared
// sweep worker pool — with live progress and checkpoint/resume.
//
// Each figure is a Task: a named sweep grid plus a render kind (curves,
// breakdown, or fairness tables). Run lays every task's simulation points
// end to end in paper order and hands them to sweep.RestoreOrRun as one
// batch: points a Checkpoint already holds are skipped, the rest run front
// to back with no barrier between figures — the pool drains fig2a into
// fig2b into fig5a at whole-simulation granularity, which is what keeps
// every core busy for the full pipeline instead of per figure. Completed
// points are persisted to the checkpoint as they finish, so an interrupted
// pipeline (SIGINT, crash, job timeout) restarts where it left off.
//
// Invariants:
//
//   - Results are bit-identical across worker counts and across any
//     interrupt/resume split: per-task records are held in point-index
//     order and aggregated only when the task is complete, so float
//     accumulation order never depends on scheduling.
//   - A checkpoint is bound to the configuration fingerprint that created
//     it; resuming under a different configuration is an error, not a
//     silent mix.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"dragonfly/internal/report"
	"dragonfly/internal/router"
	"dragonfly/internal/sim"
	"dragonfly/internal/sweep"
	"dragonfly/internal/topology"
)

// PaperMechanisms is the paper's full mechanism set, in figure-legend
// order.
var PaperMechanisms = []string{
	"MIN", "Obl-RRG", "Obl-CRG", "Src-RRG", "Src-CRG",
	"In-Trns-RRG", "In-Trns-CRG", "In-Trns-MM",
}

// Kind selects how a task's series are rendered.
type Kind int

const (
	// Curves renders latency/throughput-vs-load tables and CurveCSV.
	Curves Kind = iota
	// Breakdown renders the Figure 3 latency decomposition.
	Breakdown
	// FairnessTables renders the Figure 4/6 injection histogram plus the
	// Table II/III fairness metrics.
	FairnessTables
)

// ParseKind resolves a kind by its report name (dfsweep -report): curves,
// breakdown or fair.
func ParseKind(name string) (Kind, error) {
	if k, ok := map[string]Kind{"curves": Curves, "breakdown": Breakdown, "fair": FairnessTables}[name]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("unknown report %q (known: curves, breakdown, fair)", name)
}

// Render is the one renderer of a kind: it writes the kind's text tables
// to w and, for Curves and Breakdown, its CSV to csv (nil: no CSV).
// FairnessTables lists the routers of the given group, of routersPerGroup
// each, then the network-wide fairness metrics; it has no CSV.
func Render(w, csv io.Writer, k Kind, series []sweep.Series, group, routersPerGroup int) error {
	var text string
	var writeCSV func(io.Writer, []sweep.Series) error
	switch k {
	case Curves:
		text, writeCSV = report.CurveTable(series).String(), report.CurveCSV
	case Breakdown:
		text, writeCSV = report.BreakdownTable(series).String(), report.BreakdownCSV
	case FairnessTables:
		text = report.InjectionTable(series, group, routersPerGroup).String() +
			"\nNetwork-wide fairness metrics:\n\n" + report.FairnessTable(series).String()
	}
	if _, err := io.WriteString(w, text); err != nil || csv == nil || writeCSV == nil {
		return err
	}
	return writeCSV(csv, series)
}

// Task is one node of the pipeline: a named sweep grid with a render kind.
type Task struct {
	// Name is the stable identifier ("fig2a") used for checkpoint keys
	// and CSV file names.
	Name string
	// Title is the human heading ("fig2a (UN, transit-priority)").
	Title string
	Kind  Kind
	Grid  sweep.Grid
	// CSV is the output file name ("fig2a.csv"; empty: no CSV).
	CSV string

	// deriveFrom, when set, marks this task's grid a subset of another
	// task's: it owns no simulations and is rendered from the source's
	// records (fig3 ⊂ fig2c whenever In-Trns-MM is among the swept
	// mechanisms — re-simulating saturated paper-scale ADVc points costs
	// minutes each).
	deriveFrom *Task
}

// ckptTask is the checkpoint namespace the task's points live under.
func (t *Task) ckptTask() string {
	if t.deriveFrom != nil {
		return t.deriveFrom.Name
	}
	return t.Name
}

// Points returns the task's simulation points.
func (t *Task) Points() []sweep.Point { return t.Grid.Points() }

// Options parameterizes Build.
type Options struct {
	// Loads for the Figure 2/5 sweeps.
	Loads []float64
	// Seeds replicated per point (the paper averages 3).
	Seeds []uint64
	// FairLoad is the operating point of the fairness tables (paper: 0.4).
	FairLoad float64
	// SkipSweeps drops the Figure 2/3/5 load sweeps (fairness only).
	SkipSweeps bool
	// Mechanisms overrides PaperMechanisms (tests shrink the grid with
	// it). Fairness tasks use the non-MIN subset, as in the paper.
	Mechanisms []string
	// Workers bounds concurrently running simulations across the whole
	// pipeline (0: sweep.Concurrent of the base's engine workers).
	Workers int
	// LatencyModels, when non-empty, adds a per-link latency model sweep
	// axis: the whole task set is replicated once per model, producing the
	// heterogeneous counterparts of every figure. The "uniform" model keeps
	// the bare task names, other models suffix theirs with "@<model>" —
	// task names are the checkpoint namespace, so an axis-less checkpoint
	// composes with a later widened run (only the new models simulate).
	LatencyModels []topology.LatencyModel
	// Reuse once chose the snapshot reuse of the pipeline's one cache.
	//
	// Deprecated: selects nothing. Every point restores from a construction
	// template; the field stays only while benchmark/ names it.
	Reuse sweep.ReuseMode
}

// Pipeline is the built task graph. Tasks are in paper order, which is the
// order Run works through their points.
type Pipeline struct {
	Tasks   []*Task
	base    sim.Config
	workers int // pipeline-wide concurrent-simulation bound
}

// Build assembles the figure/table tasks for a base configuration. The
// base's arbitration is overridden per task (Figures 2-4 run with transit
// priority, 5/6 without, the extension with age-based arbitration).
func Build(base sim.Config, opt Options) *Pipeline {
	mechs := opt.Mechanisms
	if len(mechs) == 0 {
		mechs = PaperMechanisms
	}
	fairMechs := make([]string, 0, len(mechs))
	for _, m := range mechs {
		if m != "MIN" { // MIN is not part of Figures 4/6
			fairMechs = append(fairMechs, m)
		}
	}

	p := &Pipeline{base: base, workers: cmp.Or(opt.Workers, sweep.Concurrent(base.Workers))}
	models := opt.LatencyModels
	if len(models) == 0 {
		models = []topology.LatencyModel{nil} // nil: keep base.LatencyModel
	}
	for _, lm := range models {
		mbase := base
		suffix := ""
		if lm != nil {
			mbase.LatencyModel = lm
			if lm.Name() != "uniform" {
				suffix = "@" + lm.Name()
			}
		}
		p.buildModelTasks(mbase, suffix, opt, mechs, fairMechs)
	}

	// One snapshot cache spans every task: the cache keys on everything
	// that shapes the wired network (arbitration included, via the router
	// config), so figures sharing a mechanism/pattern/seed combination
	// share one template while fig2 (transit-priority) and fig5
	// (round-robin) keep theirs apart.
	cache := &sweep.SnapshotCache{}
	for _, t := range p.Tasks {
		t.Grid.Snapshots = cache
	}
	return p
}

// buildModelTasks appends one latency model's figure/table tasks, task
// names suffixed to keep per-model checkpoint namespaces distinct.
func (p *Pipeline) buildModelTasks(base sim.Config, suffix string, opt Options, mechs, fairMechs []string) {
	add := func(t Task) {
		// base.Workers is honoured per simulation (engine-level
		// parallelism); Build splits GOMAXPROCS between such simulations.
		t.Grid.Seeds = opt.Seeds
		p.Tasks = append(p.Tasks, &t)
	}

	if !opt.SkipSweeps {
		// Figures 2 and 5: three patterns × two arbitrations.
		for _, fig := range []struct {
			name string
			arb  router.Arbitration
		}{
			{"fig2", router.TransitOverInjection},
			{"fig5", router.RoundRobin},
		} {
			for i, pat := range []string{"UN", "ADV+1", "ADVc"} {
				cfg := base
				cfg.Router.Arbitration = fig.arb
				name := fmt.Sprintf("%s%c%s", fig.name, 'a'+i, suffix)
				add(Task{
					Name:  name,
					Title: fmt.Sprintf("%s (%s, %v)", name, pat, fig.arb),
					Kind:  Curves,
					Grid: sweep.Grid{
						Base:       cfg,
						Mechanisms: mechs,
						Patterns:   []string{pat},
						Loads:      opt.Loads,
					},
					CSV: name + ".csv",
				})
			}
		}

		// Figure 3: latency breakdown for In-Trns-MM under ADVc. When the
		// sweep already covers In-Trns-MM, fig3's points are a strict
		// subset of fig2c's and are rendered from its records instead of
		// re-simulated.
		cfg := base
		cfg.Router.Arbitration = router.TransitOverInjection
		fig3 := Task{
			Name:  "fig3" + suffix,
			Title: "Figure 3" + suffix + ": latency breakdown, In-Trns-MM under ADVc",
			Kind:  Breakdown,
			Grid: sweep.Grid{
				Base:       cfg,
				Mechanisms: []string{"In-Trns-MM"},
				Patterns:   []string{"ADVc"},
				Loads:      opt.Loads,
			},
			CSV: "fig3" + suffix + ".csv",
		}
		for _, m := range mechs {
			if m == "In-Trns-MM" {
				fig3.deriveFrom = p.taskByName("fig2c" + suffix)
				break
			}
		}
		add(fig3)
	}

	// Figures 4/6 and Tables II/III (+ the age-arbitration extension).
	for _, exp := range []struct {
		name, title string
		arb         router.Arbitration
	}{
		{"fig4", "fig4 / Table II", router.TransitOverInjection},
		{"fig6", "fig6 / Table III", router.RoundRobin},
		{"ext-age", "Age arbitration (future work)", router.AgeBased},
	} {
		cfg := base
		cfg.Router.Arbitration = exp.arb
		add(Task{
			Name:  exp.name + suffix,
			Title: fmt.Sprintf("%s%s: ADVc @ %.2f, arbitration %v", exp.title, suffix, opt.FairLoad, exp.arb),
			Kind:  FairnessTables,
			Grid: sweep.Grid{
				Base:       cfg,
				Mechanisms: fairMechs,
				Patterns:   []string{"ADVc"},
				Loads:      []float64{opt.FairLoad},
			},
		})
	}
}

// taskByName finds an already-added task (nil if absent).
func (p *Pipeline) taskByName(name string) *Task {
	for _, t := range p.Tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// TotalPoints is the pipeline's simulation count before checkpoint
// skipping. Derived tasks own no simulations and do not count.
func (p *Pipeline) TotalPoints() int {
	n := 0
	for _, t := range p.Tasks {
		if t.deriveFrom == nil {
			n += len(t.Points())
		}
	}
	return n
}

// Restorable counts this pipeline's points already satisfied by the
// checkpoint — the meaningful "already done" number for a resume banner
// (the checkpoint may hold records for points outside a narrowed grid).
func (p *Pipeline) Restorable(ck *sweep.Checkpoint) int {
	n := 0
	for _, t := range p.Tasks {
		if t.deriveFrom != nil {
			continue
		}
		for _, pt := range t.Points() {
			if _, ok := ck.Lookup(t.ckptTask(), pt); ok {
				n++
			}
		}
	}
	return n
}

// Fingerprint identifies the configuration a checkpoint belongs to: the
// base's sim.Config.Fingerprint. The LatencyModels sweep axis is
// deliberately NOT part of it: per-model results live under per-model task
// names, so widening the axis resumes an existing checkpoint and only the
// new models simulate.
func (p *Pipeline) Fingerprint() string { return p.base.Fingerprint() }

// Progress is one live-progress observation.
type Progress struct {
	// Task is the task whose point just completed (or was restored).
	Task string
	// Done/Total count simulation points across the whole pipeline;
	// Done includes checkpoint-restored points.
	Done, Total int
	// Restored counts the points satisfied from the checkpoint.
	Restored int
	// Record is the record of the point this observation is about —
	// freshly completed, or restored from the checkpoint (then
	// PointRestored is set and the record's timings are from the run
	// that originally produced it).
	Record        *sweep.Record
	PointRestored bool
}

// TaskResult pairs a task with its aggregated series.
type TaskResult struct {
	Task   *Task
	Series []sweep.Series
	// Err is the first per-point failure (series then cover the surviving
	// points), or the cancellation error when the pipeline was
	// interrupted before this task completed (series then nil).
	Err error
}

// Run executes the pipeline on the shared sweep pool. Points found in ck
// (nil: no checkpointing) are restored without simulating; fresh
// completions are persisted to ck as they finish. progress (nil ok) is
// invoked after every restored or completed point. On cancellation Run
// drains running simulations, leaves the checkpoint consistent, and
// returns ctx.Err(); tasks whose points all finished keep their results.
func (p *Pipeline) Run(ctx context.Context, ck *sweep.Checkpoint, progress func(Progress)) ([]TaskResult, error) {
	// Every owned point, in paper order; task ti's are slots[first[ti]:first[ti+1]].
	var slots []sweep.Slot
	var owner []*Task
	first := make([]int, len(p.Tasks)+1)
	for ti, t := range p.Tasks {
		if t.deriveFrom == nil {
			for _, pt := range t.Points() {
				slots = append(slots, sweep.Slot{Task: t.Name, Point: pt})
				owner = append(owner, t)
			}
		}
		first[ti+1] = len(slots)
	}

	var done, restored atomic.Int64
	recs, filled, runErr := sweep.RestoreOrRun(ctx, ck, slots, p.workers,
		func(i int) sweep.Record { return owner[i].Grid.RunRecord(slots[i].Task, slots[i].Point) },
		func(i int, rec *sweep.Record, wasRestored bool) {
			d := done.Add(1)
			if wasRestored {
				restored.Add(1)
			}
			if progress != nil {
				progress(Progress{
					Task:          slots[i].Task,
					Done:          int(d),
					Total:         len(slots),
					Restored:      int(restored.Load()),
					Record:        rec,
					PointRestored: wasRestored,
				})
			}
		})

	results := make([]TaskResult, len(p.Tasks))
	for ti, t := range p.Tasks {
		src := ti
		if t.deriveFrom != nil {
			// A derived task is rendered from its point subset of the
			// source's records. Build adds sources before their derivations.
			src = slices.Index(p.Tasks, t.deriveFrom)
		}
		lo, hi := first[src], first[src+1]
		if slices.Contains(filled[lo:hi], false) {
			results[ti] = TaskResult{Task: t, Err: runErr} // interrupted before it completed
			continue
		}
		taskRecs := recs[lo:hi]
		if t.deriveFrom != nil {
			byPt := make(map[sweep.Point]sweep.Record, len(taskRecs))
			for _, rec := range taskRecs {
				byPt[rec.Point] = rec
			}
			taskRecs = make([]sweep.Record, 0, len(t.Points()))
			for _, pt := range t.Points() {
				if rec, ok := byPt[pt]; ok {
					taskRecs = append(taskRecs, rec)
				}
			}
		}
		series, err := sweep.AggregateRecords(taskRecs)
		results[ti] = TaskResult{Task: t, Series: series, Err: err}
	}
	return results, runErr
}

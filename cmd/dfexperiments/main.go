// dfexperiments regenerates every table and figure of the paper's
// evaluation section in one run and writes the results as text (and
// optionally CSV files for plotting):
//
//	Figure 2a/2b/2c — latency & throughput vs load, UN/ADV+1/ADVc, priority
//	Figure 3        — latency breakdown, In-Trns-MM under ADVc
//	Figure 4        — injections per router, ADVc @ 0.4, priority
//	Table II        — fairness metrics, priority
//	Figure 5a/5b/5c — as Figure 2, without priority
//	Figure 6        — as Figure 4, without priority
//	Table III       — fairness metrics, without priority
//	Extension       — age-based arbitration (the paper's future work)
//
// The figures run as one task graph on the shared sweep worker pool:
// whole simulations are the unit of parallelism, figures drain into each
// other without barriers, and a checkpoint file (-checkpoint, or
// <out>/checkpoint.jsonl when -out is set) persists every completed run,
// so an interrupted pipeline — Ctrl-C, crash, batch-job timeout — resumes
// where it left off. Results are bit-identical whatever the worker count
// and however often the run was interrupted.
//
// By default it runs on a scaled-down balanced h=3 Dragonfly (342 nodes)
// where every qualitative effect of the paper is visible in minutes; pass
// -full for the paper's 5,256-node configuration.
//
// Usage:
//
//	dfexperiments -out results/ -seeds 3
//	dfexperiments -full -out results-full/          # Ctrl-C safe,
//	dfexperiments -full -out results-full/          # rerun to resume
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dragonfly/internal/cli"
	"dragonfly/internal/experiments"
	"dragonfly/internal/report"
	"dragonfly/internal/routing"
	"dragonfly/internal/serve"
	"dragonfly/internal/sweep"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
)

func main() {
	fs := flag.NewFlagSet("dfexperiments", flag.ExitOnError)
	var flags cli.Base
	build := flags.Flags(fs)
	out := fs.String("out", "", "directory for CSV outputs (empty: text only)")
	seeds := fs.Int("seeds", 3, "seed replicas per point (paper: 3)")
	loads := fs.String("loads", "0.05:0.6:0.05", "load range for the figure sweeps")
	fairLoad := fs.Float64("fair-load", 0.4, "load for the fairness experiments (paper: 0.4)")
	skipSweeps := fs.Bool("skip-sweeps", false, "skip the Figure 2/3/5 load sweeps (fairness only)")
	mechs := fs.String("mechanisms", strings.Join(experiments.PaperMechanisms, ","),
		"mechanisms to sweep ("+strings.Join(routing.Names(), ", ")+")")
	latModels := fs.String("latency-models", "",
		"comma-separated latency models to sweep as an extra axis ("+strings.Join(topology.KnownLatencyModels(), ", ")+
			"); overrides -latency-model, non-uniform tasks are suffixed @<model> and compose with -checkpoint resume")
	ckPath := fs.String("checkpoint", "",
		"checkpoint file for interrupt/resume (default <out>/checkpoint.jsonl when -out is set; \"off\" disables)")
	quiet := fs.Bool("quiet", false, "suppress the live progress line")
	listen := fs.String("listen", "", "serve a live introspection endpoint on this address (e.g. :8080)")
	slowest := fs.Int("slowest", 10, "rows in the end-of-run slowest-tasks table (0 disables)")
	startProf := cli.ProfileFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	stopProf, err := startProf()
	if err != nil {
		fatal(err)
	}

	mechList := cli.SplitList(*mechs)
	base, err := build(mechList, []string{"UN", "ADV+1", "ADVc"})
	if err != nil {
		fatal(err)
	}
	loadList, err := cli.ParseLoads(*loads)
	if err != nil {
		fatal(err)
	}
	if !cli.IsLoad(*fairLoad) {
		fatal(fmt.Errorf("bad -fair-load %v: want a finite load ≥ 0", *fairLoad))
	}
	seedList, err := cli.ParseSeeds(base.Seed, *seeds)
	if err != nil {
		fatal(err)
	}
	// The latency axis is resolved — and typos rejected — at flag time,
	// from the same class latencies the single -latency-model flag uses.
	var models []topology.LatencyModel
	for _, name := range cli.SplitList(*latModels) {
		m, err := topology.LatencyModelByName(name, flags.LocalLat, flags.GlobalLat)
		if err == nil {
			err = topology.ValidateLatency(m, base.Topology)
		}
		if err != nil {
			fatal(err)
		}
		models = append(models, m)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	pipe := experiments.Build(base, experiments.Options{
		Loads:         loadList,
		Seeds:         seedList,
		FairLoad:      *fairLoad,
		SkipSweeps:    *skipSweeps,
		Mechanisms:    mechList,
		LatencyModels: models,
	})
	if pipe.TotalPoints() == 0 {
		fatal(fmt.Errorf("no task has a point to run: the fairness tasks leave MIN out, so -skip-sweeps needs another mechanism"))
	}

	var ck *sweep.Checkpoint
	path := *ckPath
	if path == "" && *out != "" {
		path = filepath.Join(*out, "checkpoint.jsonl")
	}
	if path != "" && path != "off" {
		ck, err = sweep.OpenCheckpoint(path, pipe.Fingerprint())
		if err != nil {
			fatal(err)
		}
		defer ck.Close()
		if n := pipe.Restorable(ck); n > 0 {
			fmt.Fprintf(os.Stderr, "dfexperiments: resuming from %s (%d/%d runs already done)\n",
				path, n, pipe.TotalPoints())
		}
	}

	// The live accumulator always runs (it also feeds the end-of-run
	// slowest-tasks table); -listen additionally serves it over HTTP.
	live := telemetry.NewLive()
	live.SetTotal(pipe.TotalPoints())
	if *listen != "" {
		addr, err := serve.ServeLive(live, *listen)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dfexperiments: live endpoint at http://%s/\n", addr)
	}

	// First Ctrl-C cancels the pipeline gracefully: running simulations
	// drain, the checkpoint stays consistent, and a rerun resumes. A
	// second Ctrl-C kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	progress := func(p experiments.Progress) {
		var wall, cpu float64
		if p.Record != nil && !p.PointRestored {
			wall, cpu = p.Record.WallSeconds, p.Record.CPUSeconds
		}
		live.NotePoint(p.Task, wall, cpu, p.PointRestored)
		if *quiet {
			return
		}
		elapsed := time.Since(start)
		line := fmt.Sprintf("\rdfexperiments: %s · %d/%d runs", p.Task, p.Done, p.Total)
		if fresh := p.Done - p.Restored; fresh > 4 && p.Done < p.Total {
			rate := elapsed / time.Duration(fresh)
			line += fmt.Sprintf(" · eta %v", (time.Duration(p.Total-p.Done) * rate).Round(time.Second))
		}
		fmt.Fprintf(os.Stderr, "%-78s", line)
	}
	results, runErr := pipe.Run(ctx, ck, progress)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}

	failed := false // some task lost a point
	for _, r := range results {
		if r.Series == nil {
			continue // interrupted before this task completed
		}
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "dfexperiments: %s: %v\n", r.Task.Name, r.Err)
			failed = true
		}
		render(r, *out, base.Topology.A)
	}

	if runErr == context.Canceled || ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "dfexperiments: interrupted after %v — rerun with the same flags to resume\n",
			time.Since(start).Round(time.Second))
		os.Exit(130)
	}
	if runErr != nil {
		fatal(runErr)
	}
	printSlowest(live.Timings(), *slowest)
	// Build installs one cache across every task.
	var cache *sweep.SnapshotCache
	if len(pipe.Tasks) > 0 {
		cache = pipe.Tasks[0].Grid.Snapshots
	}
	fmt.Printf("\ndfexperiments: completed in %v (snapshot cache: %v)\n",
		time.Since(start).Round(time.Second), cache.Stats())
	if err := stopProf(); err != nil {
		fatal(err)
	}
	// What survived is rendered; a failed point still fails the run.
	if failed {
		os.Exit(1)
	}
}

// printSlowest renders the per-task cost table, slowest first. Restored
// points carried no fresh cost, so a fully resumed task shows zero time.
func printSlowest(timings []telemetry.TaskTiming, max int) {
	if max <= 0 || len(timings) == 0 {
		return
	}
	if len(timings) > max {
		timings = timings[:max]
	}
	fmt.Printf("\n== slowest tasks ==\n\n")
	t := report.NewTable("Task", "Points", "Restored", "Wall(s)", "CPU(s)")
	for _, tt := range timings {
		t.AddRow(tt.Task,
			fmt.Sprintf("%d", tt.Points),
			fmt.Sprintf("%d", tt.Restored),
			fmt.Sprintf("%.1f", tt.WallSeconds),
			fmt.Sprintf("%.1f", tt.CPUSeconds))
	}
	fmt.Print(t.String())
}

// render prints one task's heading and tables (group 0's routers for the
// fairness tasks) and writes its CSV into outDir, if set.
func render(r experiments.TaskResult, outDir string, routersPerGroup int) {
	fmt.Printf("\n== %s ==\n\n", r.Task.Title)
	render := func(csv io.Writer) error {
		return experiments.Render(os.Stdout, csv, r.Task.Kind, r.Series, 0, routersPerGroup)
	}
	var err error
	if outDir == "" || r.Task.CSV == "" {
		err = render(nil)
	} else {
		err = cli.WriteFile(filepath.Join(outDir, r.Task.CSV), render)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfexperiments:", err)
	os.Exit(1)
}

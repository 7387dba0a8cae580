package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dragonfly/internal/cli"
	"dragonfly/internal/report"
	"dragonfly/internal/scheduler"
	"dragonfly/internal/sim"
	"dragonfly/internal/sweep"
	"dragonfly/internal/topology"
)

// The -generate study: synthesize one seeded trace per (allocation, seed)
// and run it under every requested discipline on the streaming scheduler
// core. Each (discipline, alloc, seed) point is the network's record of the
// run, under the task "discipline/alloc", with the scheduler.StreamSummary
// in its Extra, checkpointed through sweep.Checkpoint: a run killed
// mid-study resumes from the completed points, and because the summaries
// are deterministic the final output is byte-identical whether the study
// was interrupted zero or ten times.

// study is the -generate study's description; flags fills it.
type study struct {
	spec     scheduler.GenSpec
	discs    string // comma-separated; empty: every discipline
	allocs   string // comma-separated
	ckptPath string
	outPath  string
}

// flags registers the -generate flags onto the study's own fields. The
// study runs when spec.Jobs > 0.
func (st *study) flags(fs *flag.FlagSet) {
	fs.IntVar(&st.spec.Jobs, "generate", 0, "synthesize a seeded trace with this many jobs instead of replaying -trace/-job")
	fs.Float64Var(&st.spec.InterArrival, "gen-arrival", 30, "generated mean inter-arrival time in cycles")
	fs.Float64Var(&st.spec.NodesMedian, "gen-nodes-median", 8, "generated median job size in nodes")
	fs.Float64Var(&st.spec.NodesSigma, "gen-nodes-sigma", 0.7, "generated job size lognormal sigma")
	fs.IntVar(&st.spec.MaxNodes, "gen-cap", 0, "generated job size cap in nodes (0 = the machine)")
	fs.Float64Var(&st.spec.DurMedian, "gen-dur-median", 300, "generated median job duration in cycles")
	fs.Float64Var(&st.spec.DurSigma, "gen-dur-sigma", 0.7, "generated job duration lognormal sigma")
	fs.StringVar(&st.discs, "disciplines", "", "comma-separated disciplines to compare (default: all)")
	fs.StringVar(&st.allocs, "allocs", "consecutive", "comma-separated allocation policies to compare")
	fs.StringVar(&st.ckptPath, "checkpoint", "", "checkpoint completed study points to this JSONL file and resume from it")
	fs.StringVar(&st.outPath, "out", "", "write the study summaries as JSON to this file")
}

// studyFlag reports whether the named flag is one only the study reads.
func studyFlag(name string) bool {
	switch name {
	case "disciplines", "allocs", "checkpoint", "out":
		return true
	}
	return strings.HasPrefix(name, "gen-")
}

// meta fingerprints the study for the checkpoint — the network
// (sim.Config.Fingerprint, whose cycle cap is -measure's) and the trace
// generator; the mechanism, load and seed are each record's point. Resuming
// under different parameters must fail loudly, not mix incompatible points.
func (st *study) meta(cfg sim.Config) string {
	specJSON, _ := json.Marshal(st.spec)
	return fmt.Sprintf("dfsched-study|%s|%s", cfg.Fingerprint(), specJSON)
}

// run executes the study. An explicitly set -measure caps every generated
// run (measureSet). Returns the process exit code: 130 when interrupted
// (the checkpoint holds every completed point), 0 on success.
func (st *study) run(cfg sim.Config, seeds int, asJSON, measureSet bool) int {
	if st.spec.MaxNodes == 0 {
		st.spec.MaxNodes = topology.New(cfg.Topology).NumNodes()
	}
	discs, allocs := cli.SplitList(st.discs), cli.SplitList(st.allocs)
	if len(discs) == 0 {
		discs = scheduler.KnownDisciplines()
	}
	for _, d := range discs {
		if err := scheduler.ValidateDiscipline(d); err != nil {
			fatal(err)
		}
	}
	if len(allocs) == 0 {
		fatal(fmt.Errorf("-allocs lists no allocation policy"))
	}
	// The generated run ends at its last departure; the configured cycle
	// counts only cap it. Leave warm-up untouched (it offsets arrivals the
	// same way for every discipline) and, unless -measure sets the cap,
	// raise it out of the way.
	if !measureSet {
		cfg.MeasureCycles = 1 << 40
	}

	var ck *sweep.Checkpoint
	if st.ckptPath != "" {
		var err error
		if ck, err = sweep.OpenCheckpoint(st.ckptPath, st.meta(cfg)); err != nil {
			fatal(err)
		}
		defer ck.Close()
	}

	// First Ctrl-C starts no further point (the running ones finish into the
	// checkpoint, and a rerun resumes); a second kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	var slots []sweep.Slot
	for _, disc := range discs {
		for _, alloc := range allocs {
			for s := 0; s < seeds; s++ {
				slots = append(slots, sweep.Slot{Task: disc + "/" + alloc,
					Point: sweep.Point{Mechanism: cfg.Mechanism, Pattern: cfg.Pattern, Load: cfg.Load, Seed: cfg.Seed + uint64(s)}})
			}
		}
	}
	restored := 0
	start := time.Now()
	recs, filled, err := sweep.RestoreOrRun(ctx, ck, slots, sweep.Concurrent(cfg.Workers), func(i int) sweep.Record {
		rec, err := st.runPoint(cfg, slots[i])
		if err != nil {
			fatal(err)
		}
		return rec
	}, func(_ int, _ *sweep.Record, wasRestored bool) {
		if wasRestored { // restored slots are noted before any point runs: no race
			restored++
		}
	})
	// A Ctrl-C during the last points leaves nothing to drop, so the batch
	// completes; the run was still interrupted, whatever the core count.
	if errors.Is(err, context.Canceled) || ctx.Err() != nil {
		n := 0
		for _, ok := range filled {
			if ok {
				n++
			}
		}
		fmt.Fprintf(os.Stderr, "dfsched: interrupted after %d/%d points (%v) — rerun with the same flags to resume\n",
			n, len(slots), time.Since(start).Round(time.Second))
		return 130
	}
	if err != nil {
		fatal(err)
	}
	// Fresh and restored points alike are read back from their records, so
	// the output cannot depend on where a run was interrupted.
	summaries := make([]scheduler.StreamSummary, len(recs))
	for i, rec := range recs {
		if err := json.Unmarshal(rec.Extra, &summaries[i]); err != nil {
			fatal(fmt.Errorf("checkpoint point %s seed %d: %w", rec.Task, rec.Point.Seed, err))
		}
	}

	if st.outPath != "" {
		if err := writeSummaries(st.outPath, summaries); err != nil {
			fatal(err)
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summaries); err != nil {
			fatal(err)
		}
		return 0
	}
	st.render(cfg, summaries, restored, time.Since(start))
	return 0
}

// runPoint generates the slot's (alloc, seed) trace and runs it under the
// slot's discipline into the network's record, the summary in its Extra.
func (st *study) runPoint(cfg sim.Config, sl sweep.Slot) (sweep.Record, error) {
	disc, alloc, _ := strings.Cut(sl.Task, "/")
	spec := st.spec
	spec.Alloc = alloc
	gt, err := scheduler.Generate(spec, sl.Point.Seed)
	if err != nil {
		return sweep.Record{}, err
	}
	cfg.Seed = sl.Point.Seed
	res, err := scheduler.RunGenerated(cfg, gt, disc)
	if err != nil {
		return sweep.Record{}, fmt.Errorf("%s seed %d: %w", sl.Task, sl.Point.Seed, err)
	}
	sum, err := res.Summary(alloc, sl.Point.Seed)
	if err != nil {
		return sweep.Record{}, err
	}
	rec := sweep.RecordOf(sl.Task, sweep.Sample{Point: sl.Point, Result: res.Sim})
	rec.Extra, err = json.Marshal(sum)
	return rec, err
}

// render prints the study table: one row per point, grouped the way the
// loops ran them.
func (st *study) render(cfg sim.Config, summaries []scheduler.StreamSummary, restored int, wall time.Duration) {
	fmt.Printf("network:    %v\n", topology.New(cfg.Topology).Params())
	fmt.Printf("mechanism:  %s   load: %.3g   trace: %d jobs, 1/λ=%.4g, nodes med %.4g σ%.3g ≤%d, dur med %.4g σ%.3g\n\n",
		cfg.Mechanism, cfg.Load, st.spec.Jobs, st.spec.InterArrival,
		st.spec.NodesMedian, st.spec.NodesSigma, st.spec.MaxNodes, st.spec.DurMedian, st.spec.DurSigma)
	t := report.NewTable("Discipline", "Alloc", "Seed", "Util", "WaitMean", "SlowP50", "SlowP99", "SlowMean", "PeakRun", "PeakQ", "PktLat")
	for _, s := range summaries {
		t.AddRow(s.Discipline, s.Alloc, fmt.Sprintf("%d", s.Seed),
			fmt.Sprintf("%.4f", s.Utilization),
			fmt.Sprintf("%.1f", s.WaitMean),
			fmt.Sprintf("%.2f", s.SlowdownP50),
			fmt.Sprintf("%.2f", s.SlowdownP99),
			fmt.Sprintf("%.2f", s.SlowdownMean),
			fmt.Sprintf("%d", s.PeakRunning),
			fmt.Sprintf("%d", s.PeakQueue),
			fmt.Sprintf("%.1f", s.PktLatMean),
		)
	}
	fmt.Print(t.String())
	fmt.Printf("\n%d points in %v (%d restored from checkpoint)\n", len(summaries), wall.Round(time.Millisecond), restored)
}

// writeSummaries writes the deterministic study output file.
func writeSummaries(path string, summaries []scheduler.StreamSummary) error {
	data, err := json.MarshalIndent(summaries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

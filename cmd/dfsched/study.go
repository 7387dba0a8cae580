package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
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
// core. Each (discipline, alloc, seed) point condenses into a
// scheduler.StreamSummary, checkpointed through sweep.Checkpoint: a run
// killed mid-study resumes from the completed points, and because the
// summaries are deterministic the final output is byte-identical whether
// the study was interrupted zero or ten times.

// study is the -generate study's description; flags fills it.
type study struct {
	spec      scheduler.GenSpec
	discs     string // comma-separated; empty: every discipline
	allocs    string // comma-separated
	ckptPath  string
	outPath   string
	memProbe  bool
	maxCycles int64
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
	fs.BoolVar(&st.memProbe, "gen-mem", false, "measure retained memory at each run's last departure (costs a GC per run)")
	fs.Int64Var(&st.maxCycles, "gen-max-cycles", 0, "cycle cap per generated run (0 = 2^40; the run normally ends at the last departure)")
}

// meta fingerprints the study configuration for the checkpoint — the
// network (sim.Config.Fingerprint, whose cycle cap is -gen-max-cycles),
// the mechanism, the load and the trace generator: resuming under different
// parameters must fail loudly, not mix incompatible points.
func (st *study) meta(cfg sim.Config) string {
	specJSON, _ := json.Marshal(st.spec)
	return fmt.Sprintf("dfsched-gen|%s|%s|load=%.9g|%s", cfg.Fingerprint(), cfg.Mechanism, cfg.Load, specJSON)
}

// run executes the study. Returns the process exit code: 130 when
// interrupted (the checkpoint holds every completed point), 0 on success.
func (st *study) run(cfg sim.Config, seeds int, asJSON bool) int {
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
	// same way for every discipline) and raise the cap out of the way.
	cfg.MeasureCycles = 1 << 40
	if st.maxCycles > 0 {
		cfg.MeasureCycles = st.maxCycles
	}

	var ck *sweep.Checkpoint
	if st.ckptPath != "" {
		var err error
		if ck, err = sweep.OpenCheckpoint(st.ckptPath, st.meta(cfg)); err != nil {
			fatal(err)
		}
		defer ck.Close()
	}

	// First Ctrl-C stops the study between points (the checkpoint stays
	// consistent and a rerun resumes); a second kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	var slots []sweep.Slot
	for _, disc := range discs {
		for _, alloc := range allocs {
			for s := 0; s < seeds; s++ {
				slots = append(slots, sweep.Slot{Task: "sched",
					Point: sweep.Point{Mechanism: disc, Pattern: alloc, Load: cfg.Load, Seed: cfg.Seed + uint64(s)}})
			}
		}
	}
	restored := 0
	start := time.Now()
	// One point at a time: -gen-mem measures the process heap.
	recs, filled, err := sweep.RestoreOrRun(ctx, ck, slots, 1, func(i int) sweep.Record {
		pt := slots[i].Point
		sum, err := st.runPoint(cfg, pt.Mechanism, pt.Pattern, pt.Seed)
		if err != nil {
			fatal(err)
		}
		extra, err := json.Marshal(sum)
		if err != nil {
			fatal(err)
		}
		return sweep.Record{
			Task: "sched", Point: pt,
			Mechanism: pt.Mechanism, Pattern: pt.Pattern,
			Throughput: sum.Utilization, AvgLatency: sum.WaitMean,
			Extra: extra,
		}
	}, func(_ int, _ *sweep.Record, wasRestored bool) {
		if wasRestored { // restored slots are noted before any point runs: no race
			restored++
		}
	})
	if errors.Is(err, context.Canceled) {
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
			pt := rec.Point
			fatal(fmt.Errorf("checkpoint point %s/%s seed %d: %w", pt.Mechanism, pt.Pattern, pt.Seed, err))
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

// runPoint generates the (alloc, seed) trace and runs it under disc.
func (st *study) runPoint(cfg sim.Config, disc, alloc string, seed uint64) (scheduler.StreamSummary, error) {
	spec := st.spec
	spec.Alloc = alloc
	gt, err := scheduler.Generate(spec, seed)
	if err != nil {
		return scheduler.StreamSummary{}, err
	}
	cfg.Seed = seed
	res, err := scheduler.RunGeneratedOpts(cfg, gt, disc, scheduler.StreamOptions{MeasureRetained: st.memProbe})
	if err != nil {
		return scheduler.StreamSummary{}, fmt.Errorf("%s/%s seed %d: %w", disc, alloc, seed, err)
	}
	if st.memProbe {
		fmt.Fprintf(os.Stderr, "dfsched: %s/%s seed %d: retained %.1f MB at last departure (peak %d running, %d queued)\n",
			disc, alloc, seed, float64(res.RetainedBytes)/(1<<20), res.PeakRunning, res.PeakQueue)
	}
	return res.Summary(alloc, seed)
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

// dfsched replays a timed job trace on the simulator: jobs arrive, are
// placed by the configured allocation policies under a queueing discipline
// (FCFS, aggressive backfill, or EASY backfill), run their cycle budget or
// packets-delivered target, depart, and their freed routers are recycled by
// later arrivals. It reports each job's wait/run/slowdown next to the usual
// network metrics, and can replicate the whole trace over several seeds on
// the shared sweep worker pool.
//
// With -generate N it synthesizes a seeded N-job trace (Poisson arrivals ×
// lognormal size/duration) instead and runs it on the streaming scheduler
// core — memory bounded by the jobs concurrently in the system, the run
// ending at the last departure, which an explicitly set -measure caps —
// comparing every requested discipline × allocation policy × seed, with
// optional checkpoint/resume. The study flags (-disciplines, -allocs,
// -checkpoint, -out, -gen-*) apply only to -generate, the probe flags only
// to a replay; a flag the run would ignore is refused.
//
// Usage:
//
//	dfsched                                  # built-in staggered demo trace
//	dfsched -discipline backfill -seeds 5    # multi-seed trace sweep
//	dfsched -trace trace.json -json
//	dfsched -job nodes=72,alloc=consecutive,load=0.4,arrival=0 \
//	        -job nodes=18,arrival=1500,duration=1000,dkind=packets
//	dfsched -generate 100000 -disciplines fcfs,backfill,easy \
//	        -checkpoint study.ckpt -out study.json
//
// The compact -job syntax is dfsim's one plus arrival=<cycle>,
// duration=<n>, dkind=cycles|packets|none. Trace files are the JSON form of
// the same spec: {"discipline":"fcfs","jobs":[{"nodes":72,"arrival":0},...]}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dragonfly"
	"dragonfly/internal/cli"
	"dragonfly/internal/report"
	"dragonfly/internal/routing"
	"dragonfly/internal/scheduler"
	"dragonfly/internal/sim"
	"dragonfly/internal/sweep"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// jobFlags collects repeated -job flags.
type jobFlags []scheduler.TraceJob

func (j *jobFlags) String() string { return fmt.Sprintf("%d jobs", len(*j)) }

func (j *jobFlags) Set(s string) error {
	tj, err := scheduler.ParseTraceJob(s)
	if err != nil {
		return err
	}
	*j = append(*j, tj)
	return nil
}

func main() {
	fs := flag.NewFlagSet("dfsched", flag.ExitOnError)
	build := new(cli.Base).Flags(fs)
	mech := fs.String("mechanism", "In-Trns-MM", "routing mechanism: "+strings.Join(routing.Names(), ", "))
	load := fs.Float64("load", 0.3, "default offered load for jobs without their own (phits/node/cycle)")
	disc := fs.String("discipline", scheduler.DisciplineFCFS,
		"queueing discipline: "+strings.Join(scheduler.KnownDisciplines(), ", "))
	tracePath := fs.String("trace", "", "read the job trace from this JSON file")
	var jobs jobFlags
	fs.Var(&jobs, "job", "add one trace job (repeatable): nodes=18,alloc=spread,arrival=500,duration=1000,dkind=packets,...")
	seeds := fs.Int("seeds", 1, "replicate the trace over this many seeds (base -seed upward) on the sweep pool")
	asJSON := fs.Bool("json", false, "emit the result(s) as JSON")
	var st study
	st.flags(fs)
	attachProbes := cli.ProbeFlags(fs)
	startProf := cli.ProfileFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	// Which flags were set, not just their values: the flag default "fcfs"
	// is indistinguishable from an explicit -discipline fcfs by value, but
	// an explicitly set flag overrides a -trace file's discipline, and a
	// set -measure caps a generated run. A flag the chosen path would
	// ignore is refused here.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch generate := st.spec.Jobs > 0; {
		case generate && (f.Name == "probe-every" || f.Name == "probe-out"):
			fatal(fmt.Errorf("-%s does not apply to -generate", f.Name))
		case !generate && studyFlag(f.Name):
			fatal(fmt.Errorf("-%s applies only to -generate", f.Name))
		}
	})
	stopProf, err := startProf()
	if err != nil {
		fatal(err)
	}
	stopProfile := func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}
	defer stopProfile()

	cfg, err := build([]string{*mech}, nil)
	if err != nil {
		fatal(err)
	}
	if _, err := cli.ParseSeeds(cfg.Seed, *seeds); err != nil {
		fatal(err)
	}
	cfg.Mechanism = *mech
	cfg.Load = *load

	if st.spec.Jobs > 0 {
		if *tracePath != "" || len(jobs) > 0 {
			fatal(fmt.Errorf("-generate synthesizes its own trace; drop -trace/-job"))
		}
		if set["discipline"] {
			fatal(fmt.Errorf("-generate compares the -disciplines list; drop -discipline"))
		}
		code := st.run(cfg, *seeds, *asJSON, set["measure"])
		stopProfile() // os.Exit skips the deferred call
		os.Exit(code)
	}

	trace, err := buildTrace(cfg, *disc, set["discipline"], *tracePath, jobs)
	if err != nil {
		fatal(err)
	}
	// Flag-time validation, per the df* convention: discipline, duration
	// kinds, allocation policies and pattern names are all rejected here,
	// not deep inside the first simulation.
	if err := trace.Validate(cfg.Topology); err != nil {
		fatal(err)
	}

	probeClose, err := attachProbes(&cfg)
	if err != nil {
		fatal(err)
	}
	results, runErr := sweep.Map(*seeds, cfg.Workers, func(i int) (*scheduler.Result, error) {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		if i != 0 {
			// A probe recorder belongs to exactly one run: probe the
			// base seed's replica only.
			c.Probes = nil
		}
		return dragonfly.RunSchedule(c, trace)
	})
	if err := probeClose(); err != nil {
		fatal(err)
	}
	if runErr != nil {
		fatal(runErr)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if *seeds == 1 {
			err = enc.Encode(report.NewScheduleJSON(results[0]))
		} else {
			js := make([]report.ScheduleJSON, len(results))
			for i, r := range results {
				js[i] = report.NewScheduleJSON(r)
			}
			err = enc.Encode(js)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	res := results[0]
	fmt.Printf("network:    %v\n", topology.New(cfg.Topology).Params())
	fmt.Printf("mechanism:  %s   discipline: %s   arbitration: %v\n",
		res.Sim.Mechanism, res.Discipline, cfg.Router.Arbitration)
	fmt.Printf("cycles:     %d total (%d measured)\n", res.TotalCycles, cfg.MeasureCycles)
	fmt.Printf("accepted:   %.4f phits/node/cycle   latency: %.1f avg, %d p99\n",
		res.Sim.Throughput(), res.Sim.AvgLatency(), res.Sim.LatencyQuantile(0.99))
	fmt.Printf("jobs:       %d/%d completed, makespan %s, slowdown P50 %.2f P99 %.2f\n\n",
		res.Completed, len(res.Jobs), cycles(res.Makespan),
		res.SlowdownQuantile(0.50), res.SlowdownQuantile(0.99))
	fmt.Print(report.ScheduleTable(res).String())

	if *seeds > 1 {
		fmt.Printf("\nper-seed trace replicas:\n")
		t := report.NewTable("Seed", "Completed", "Makespan", "SlowP50", "SlowP99", "SlowMean")
		var mkSum, p99Sum float64
		for i, r := range results {
			t.AddRow(
				fmt.Sprintf("%d", cfg.Seed+uint64(i)),
				fmt.Sprintf("%d/%d", r.Completed, len(r.Jobs)),
				cycles(r.Makespan),
				fmt.Sprintf("%.2f", r.SlowdownQuantile(0.50)),
				fmt.Sprintf("%.2f", r.SlowdownQuantile(0.99)),
				fmt.Sprintf("%.2f", r.MeanSlowdown()),
			)
			mkSum += float64(r.Makespan)
			p99Sum += r.SlowdownQuantile(0.99)
		}
		fmt.Print(t.String())
		n := float64(len(results))
		fmt.Printf("mean over seeds: makespan %.0f, slowdown P99 %.2f\n", mkSum/n, p99Sum/n)
	}
}

func cycles(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// buildTrace resolves the trace: -trace file, -job flags, or a built-in
// demo — one application sized to h+1 consecutive groups arriving at cycle
// 0 (the Section III allocation that manufactures ADVc traffic) plus a
// stream of jobs with packets-delivered targets arriving while it runs, so
// placement, queueing and recycling are all exercised. An explicitly set
// -discipline overrides the trace file's; otherwise the file's wins.
func buildTrace(cfg sim.Config, disc string, discSet bool, tracePath string, jobs jobFlags) (scheduler.Trace, error) {
	tr := scheduler.Trace{Discipline: disc}
	switch {
	case tracePath != "" && len(jobs) > 0:
		return tr, fmt.Errorf("use either -trace or -job, not both")
	case tracePath != "":
		tr.Discipline = ""
		data, err := os.ReadFile(tracePath)
		if err != nil {
			return tr, err
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			return tr, fmt.Errorf("%s: %w", tracePath, err)
		}
		if discSet || tr.Discipline == "" {
			tr.Discipline = disc
		}
		return tr, nil
	case len(jobs) > 0:
		tr.Jobs = jobs
		return tr, nil
	}
	p := cfg.Topology
	groupNodes := p.A * p.P
	tr.Jobs = append(tr.Jobs, scheduler.TraceJob{JobSpec: workload.JobSpec{
		Name: "app", Nodes: (p.H + 1) * groupNodes, Alloc: workload.AllocConsecutive,
	}})
	// Batch jobs are sized to half the remaining capacity, so two run
	// concurrently and later arrivals must queue for a departure —
	// placement, waiting and allocation recycling are all exercised.
	batchGroups := (p.Groups() - (p.H + 1)) / 2
	if batchGroups < 1 {
		batchGroups = 1
	}
	total := cfg.WarmupCycles + cfg.MeasureCycles
	for i := 0; i < 4; i++ {
		tr.Jobs = append(tr.Jobs, scheduler.TraceJob{
			JobSpec: workload.JobSpec{Name: fmt.Sprintf("batch%d", i), Nodes: batchGroups * groupNodes,
				Alloc: workload.AllocConsecutive, FirstGroup: p.H + 1},
			Arrival:      (total / 8) * int64(i+1),
			Duration:     int64(100 * batchGroups * groupNodes),
			DurationKind: scheduler.DurationPackets,
		})
	}
	return tr, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfsched:", err)
	os.Exit(1)
}

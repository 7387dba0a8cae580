// dfsim runs a single Dragonfly simulation and prints its performance and
// fairness summary. The traffic is one synthetic pattern (-pattern) or a
// multi-job workload (-job, -spec): applications placed on the machine by a
// scheduler, each with its own size, allocation policy (consecutive groups,
// random routers, group-spread), intra-job traffic pattern and phase
// schedule. A workload run adds per-job throughput, latency and intra-job
// fairness, and optionally the inter-job interference (each job's latency
// in the mix vs. the same placement running alone, or beside one other job).
//
// Usage:
//
//	dfsim -mechanism In-Trns-MM -pattern ADVc -load 0.4 -h 3
//	dfsim -full -mechanism Src-RRG -pattern ADV+1 -load 0.3 -workers 8
//	dfsim -job name=app,nodes=72,alloc=consecutive   # Section III: UN on h+1 groups
//	dfsim -job name=a,nodes=72,alloc=consecutive \
//	      -job name=b,nodes=72,alloc=spread -interference
//	dfsim -spec workload.json -json
//
// The compact -job syntax: name=a,nodes=72,alloc=spread,first=0,pattern=UN,
// load=0.3,phase=bursty,period=600,duty=0.5 (switch phases:
// phase=switch,period=500,patterns=UN/SHIFT+1). A job without its own load
// runs at -load.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dragonfly"
	"dragonfly/internal/cli"
	"dragonfly/internal/report"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

func main() {
	fs := flag.NewFlagSet("dfsim", flag.ExitOnError)
	build := new(cli.Base).Flags(fs)
	mech := fs.String("mechanism", "In-Trns-MM", "routing mechanism: "+strings.Join(routing.Names(), ", "))
	pattern := fs.String("pattern", "UN", "traffic pattern: UN, ADV+i, ADVc, ADVc<k>, PERM (not with -job/-spec)")
	load := fs.Float64("load", 0.4, "offered load in phits/(node*cycle); workload jobs without their own load run at it")
	var jobs []workload.JobSpec
	fs.Func("job", "add one workload job (repeatable): name=a,nodes=72,alloc=spread,pattern=UN,...", func(s string) error {
		js, err := workload.ParseJob(s)
		jobs = append(jobs, js)
		return err
	})
	specPath := fs.String("spec", "", "read the workload spec from this JSON file")
	interf := fs.Bool("interference", false, "also run every workload job solo and report mixed/solo latency ratios")
	matrix := fs.Bool("interference-matrix", false,
		"also run the N×N solo-vs-paired interference matrix (N+N·(N-1)/2 extra runs on a worker pool)")
	interfJobs := fs.Int("interference-jobs", 0,
		"concurrent interference simulations — solo baselines and matrix pairs (0 = NumCPU)")
	group := fs.Int("group", 0, "group whose per-router injections to print")
	debug := fs.Bool("debug", false, "print per-router buffer snapshots of the chosen group")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	traceNode := fs.Int("trace", -1, "print the router-event trace of packets injected by this node")
	traceMax := fs.Int("trace-max", 100, "maximum trace lines to print")
	traceOut := fs.String("trace-out", "", "write a Perfetto/Chrome trace JSON of sampled packets to this file")
	traceSample := fs.Uint64("trace-sample", 1, "trace 1-in-N packets by packet ID (with -trace-out)")
	attachProbes := cli.ProbeFlags(fs)
	startProf := cli.ProfileFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	stopProf, err := startProf()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()
	patternSet := false
	fs.Visit(func(f *flag.Flag) { patternSet = patternSet || f.Name == "pattern" })

	cfg, err := build([]string{*mech}, []string{*pattern})
	if err != nil {
		fatal(err)
	}
	if *group < 0 || *group >= cfg.Topology.Groups() {
		fatal(fmt.Errorf("-group %d out of range [0,%d)", *group, cfg.Topology.Groups()))
	}
	if *traceNode < -1 || *traceNode >= cfg.Topology.Nodes() {
		fatal(fmt.Errorf("-trace %d out of range [0,%d)", *traceNode, cfg.Topology.Nodes()))
	}
	if *debug && *asJSON {
		fatal(fmt.Errorf("-debug prints buffer snapshots, not JSON; drop -json or -debug"))
	}
	cfg.Mechanism = *mech
	cfg.Pattern = *pattern
	cfg.Load = *load

	wl, err := loadWorkload(cfg, *specPath, jobs)
	switch {
	case err != nil:
		fatal(err)
	case wl != nil && patternSet:
		fatal(fmt.Errorf("-pattern does not apply to a -job/-spec workload: each job names its own pattern"))
	case wl == nil && (*interf || *matrix):
		fatal(fmt.Errorf("-interference and -interference-matrix need a -job or -spec workload"))
	}
	if *traceNode >= 0 || *traceOut != "" {
		sample := *traceSample
		if *traceNode >= 0 {
			// Node filtering needs every packet's events, so ignore
			// the ID sampling in that mode.
			sample = 1
		}
		cfg.Tracer = telemetry.NewTracer(cfg.Topology.Routers(), sample, 1<<20)
	}
	probeClose, err := attachProbes(&cfg)
	if err != nil {
		fatal(err)
	}

	net, err := sim.NewNetwork(&cfg, wl)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	runErr := sim.RunNetwork(net, &cfg)
	wall := time.Since(start)
	if err := probeClose(); err != nil {
		fatal(err)
	}
	if runErr != nil && !*debug {
		fatal(runErr)
	}
	if cfg.Tracer != nil {
		if *traceNode >= 0 {
			printTrace(cfg.Tracer, *traceNode, *traceMax)
		}
		if *traceOut != "" {
			if err := writeTrace(cfg.Tracer, *traceOut); err != nil {
				fatal(err)
			}
		}
	}
	if *debug {
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "dfsim: %v (dumping state anyway)\n", runErr)
		}
		printDebug(net, cfg, *group)
		return
	}
	res := sim.NewResultFrom(net, &cfg, wall)

	// A probe recorder and a tracer each belong to exactly one run: the
	// solo and paired interference runs below go without. Both metrics
	// divide by the same solo baselines, so the N solo runs are paid once
	// even when both flags are set.
	cfg.Probes, cfg.Tracer = nil, nil
	var ratios []float64
	var interfMatrix [][]float64
	if *interf || *matrix {
		solo, err := dragonfly.JobSoloLatencies(cfg, wl, *interfJobs)
		if err != nil {
			fatal(err)
		}
		if *interf {
			ratios = dragonfly.JobInterferenceFromSolo(res, solo)
		}
		if *matrix {
			if interfMatrix, err = dragonfly.JobInterferenceMatrixFromSolo(cfg, wl, solo, *interfJobs); err != nil {
				fatal(err)
			}
		}
	}

	switch {
	case *asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		js := report.NewWorkloadJSON(res, ratios)
		js.InterferenceMatrix = interfMatrix
		if err := enc.Encode(js); err != nil {
			fatal(err)
		}
	case wl != nil:
		printWorkload(cfg, wl, res, ratios, interfMatrix, *group)
	default:
		printResult(cfg, res, *group)
	}
}

// loadWorkload compiles the -spec file or the -job flags into a workload;
// it returns nil when there is neither and the run uses -pattern.
func loadWorkload(cfg sim.Config, specPath string, jobs []workload.JobSpec) (*workload.Workload, error) {
	spec := workload.Spec{Jobs: jobs}
	switch {
	case specPath != "" && len(jobs) > 0:
		return nil, fmt.Errorf("use either -spec or -job, not both")
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", specPath, err)
		}
	case len(jobs) == 0:
		return nil, nil
	}
	return workload.Compile(topology.New(cfg.Topology), spec, cfg.Seed)
}

// printTrace prints the merged event stream of packets injected by one node
// in time order, up to max lines.
func printTrace(tr *telemetry.Tracer, node, max int) {
	lines := 0
	for _, e := range tr.Events() {
		if int(e.Src) != node || lines >= max {
			if lines >= max {
				break
			}
			continue
		}
		lines++
		fmt.Printf("t=%-8d %-8s pkt=%x dst=%d router=%d port=%d vc=%d hops=l%d/g%d phase=%v\n",
			e.Now, e.Kind, e.ID, e.Dst, e.Router, e.Port, e.VC, e.LocalHops, e.GlobalHops, e.Phase)
	}
}

// writeTrace exports the sampled packet trace as Perfetto/Chrome trace JSON.
func writeTrace(tr *telemetry.Tracer, path string) error {
	if dropped := tr.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "dfsim: trace buffers full, dropped %d events\n", dropped)
	}
	return cli.WriteFile(path, func(w io.Writer) error { return telemetry.WritePerfetto(w, tr.Events()) })
}

func printResult(cfg sim.Config, res *sim.Result, group int) {
	fmt.Printf("network:    %v\n", topology.New(cfg.Topology).Params())
	fmt.Printf("mechanism:  %s   pattern: %s   arbitration: %v\n",
		res.Mechanism, res.Pattern, cfg.Router.Arbitration)
	fmt.Printf("offered:    %.4f phits/node/cycle\n", res.OfferedLoad)
	ci := res.ThroughputCI()
	fmt.Printf("accepted:   %.4f ± %.4f phits/node/cycle (95%% CI, batch means)\n",
		res.Throughput(), ci.HalfCI95)
	fmt.Printf("latency:    %.1f cycles avg, %d p50, %d p99, %d max\n",
		res.AvgLatency(), res.LatencyQuantile(0.5), res.LatencyQuantile(0.99), res.MaxLatency())
	b := res.Breakdown()
	fmt.Printf("breakdown:  base %.1f + misroute %.1f + local %.1f + global %.1f + injection %.1f\n",
		b.Base, b.Misroute, b.WaitLocal, b.WaitGlobal, b.WaitInj)
	fmt.Printf("fairness:   %s\n", report.FairnessSummary(res.Fairness()))
	fmt.Printf("delivered:  %d packets in %d cycles (%.1fs wall)\n",
		res.Delivered(), res.MeasuredCycles, res.Wall.Seconds())
	fmt.Printf("group %d injections: %v\n", group, res.GroupInjections(group))
	if tm := res.Telemetry; tm != nil {
		fmt.Printf("probes:     %d samples every %d cycles; peak in-flight %d, peak queued %d phits, peak credit-stalls %d, PB flips %d\n",
			tm.Samples, tm.Every, tm.PeakInFlight, tm.PeakQueuedPhits, tm.PeakCreditStalls, tm.PBFlips)
		if tm.WriteError != "" {
			fmt.Fprintf(os.Stderr, "dfsim: probe write error: %s\n", tm.WriteError)
		}
	}
}

// printWorkload prints a workload run: the global metrics, one line per
// job, the job table with the interference ratios (nil: not computed) and
// the interference matrix (nil: not computed).
func printWorkload(cfg sim.Config, wl *workload.Workload, res *sim.Result, ratios []float64, matrix [][]float64, group int) {
	fmt.Printf("network:    %v\n", topology.New(cfg.Topology).Params())
	fmt.Printf("mechanism:  %s   workload: %s   arbitration: %v\n",
		res.Mechanism, res.Pattern, cfg.Router.Arbitration)
	for j := 0; j < wl.NumJobs(); j++ {
		fmt.Printf("  job %-10s %s\n", wl.JobName(j), wl.JobDesc(j))
	}
	fmt.Printf("accepted:   %.4f phits/node/cycle (network-wide)\n", res.Throughput())
	fmt.Printf("latency:    %.1f cycles avg, %d p99\n", res.AvgLatency(), res.LatencyQuantile(0.99))
	fmt.Printf("fairness:   %s\n\n", report.FairnessSummary(res.Fairness()))
	fmt.Print(report.JobTable(res, ratios).String())
	if matrix != nil {
		fmt.Printf("\ninterference matrix (paired latency / solo latency):\n")
		fmt.Print(report.InterferenceMatrixTable(res.JobNames, matrix).String())
	}
	fmt.Printf("\ngroup %d injections: %v\n", group, res.GroupInjections(group))
}

// printDebug prints the engine's work counters and the buffer snapshots of
// one group's routers, read from the network after the run.
func printDebug(net *sim.Network, cfg sim.Config, group int) {
	// A run whose windows collapse to one cycle (a per-cycle probe cadence,
	// a 1-cycle global link) says so here.
	cycles := cfg.WarmupCycles + cfg.MeasureCycles
	steps, windows := net.EngineSteps(), net.EngineWindows()
	fmt.Printf("engine: %d router-steps (%.1f%% of dense), %d windows, mean %.1f cycles\n",
		steps, 100*float64(steps)/float64(int64(len(net.Routers))*cycles), windows, float64(cycles)/float64(max(windows, 1)))
	if net.PBGroups() > 0 {
		rows := net.PBRows()
		fmt.Printf("piggyback: %d rows recomputed (%.1f%% of dense)\n", rows, 100*float64(rows)/float64(int64(len(net.Routers))*cycles))
	}
	a := cfg.Topology.A
	for i := 0; i < a; i++ {
		r := net.Routers[group*a+i]
		fmt.Printf("R%-2d %+v\n", i, r.Snapshot())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfsim:", err)
	os.Exit(1)
}

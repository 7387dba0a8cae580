// dfsim runs a single Dragonfly simulation and prints its performance and
// fairness summary.
//
// Usage:
//
//	dfsim -mechanism In-Trns-MM -pattern ADVc -load 0.4 -h 3
//	dfsim -full -mechanism Src-RRG -pattern ADV+1 -load 0.3 -workers 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dragonfly/internal/cli"
	"dragonfly/internal/report"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
)

func main() {
	fs := flag.NewFlagSet("dfsim", flag.ExitOnError)
	build := new(cli.Base).Flags(fs)
	mech := fs.String("mechanism", "In-Trns-MM", "routing mechanism: "+strings.Join(routing.Names(), ", "))
	pattern := fs.String("pattern", "UN", "traffic pattern: UN, ADV+i, ADVc, ADVc<k>, PERM")
	load := fs.Float64("load", 0.4, "offered load in phits/(node*cycle)")
	group := fs.Int("group", 0, "group whose per-router injections to print")
	debug := fs.Bool("debug", false, "print per-router buffer snapshots of the chosen group")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	traceNode := fs.Int("trace", -1, "print the router-event trace of packets injected by this node")
	traceMax := fs.Int("trace-max", 100, "maximum trace lines to print")
	traceOut := fs.String("trace-out", "", "write a Perfetto/Chrome trace JSON of sampled packets to this file")
	traceSample := fs.Uint64("trace-sample", 1, "trace 1-in-N packets by packet ID (with -trace-out)")
	attachProbes := cli.ProbeFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	cfg, err := build([]string{*mech}, []string{*pattern})
	if err != nil {
		fatal(err)
	}
	if *group < 0 || *group >= cfg.Topology.Groups() {
		fatal(fmt.Errorf("-group %d out of range [0,%d)", *group, cfg.Topology.Groups()))
	}
	cfg.Mechanism = *mech
	cfg.Pattern = *pattern
	cfg.Load = *load

	if *traceNode >= 0 || *traceOut != "" {
		sample := *traceSample
		if *traceNode >= 0 {
			// Node filtering needs every packet's events, so ignore
			// the ID sampling in that mode.
			sample = 1
		}
		routers := cfg.Topology.Groups() * cfg.Topology.A
		cfg.Tracer = telemetry.NewTracer(routers, sample, 1<<20)
	}

	probeClose, err := attachProbes(&cfg)
	if err != nil {
		fatal(err)
	}

	if *debug {
		runDebug(cfg, *group)
		return
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := probeClose(); err != nil {
		fatal(err)
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
	if *asJSON {
		if err := report.WriteResultJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
		return
	}
	printResult(cfg, res, *group)
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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WritePerfetto(f, tr.Events()); err != nil {
		f.Close()
		return err
	}
	if dropped := tr.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "dfsim: trace buffers full, dropped %d events\n", dropped)
	}
	return f.Close()
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

// runDebug executes the simulation with direct network access and dumps
// buffer snapshots.
func runDebug(cfg sim.Config, group int) {
	net, err := sim.NewNetwork(&cfg, nil)
	if err != nil {
		fatal(err)
	}
	if err := sim.RunNetwork(net, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dfsim: %v (dumping state anyway)\n", err)
	}
	// The engine's work counters: a run whose windows collapse to one cycle
	// (a per-cycle probe cadence, a 1-cycle global link) says so here.
	cycles := cfg.WarmupCycles + cfg.MeasureCycles
	steps, windows := net.EngineSteps(), net.EngineWindows()
	fmt.Printf("engine: %d router-steps (%.1f%% of dense), %d windows, mean %.1f cycles\n",
		steps, 100*float64(steps)/float64(int64(len(net.Routers))*cycles), windows, float64(cycles)/float64(max(windows, 1)))
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

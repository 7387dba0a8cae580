// dfsweep reproduces the load-sweep figures of the paper (Figures 2 and 5):
// average latency and accepted throughput versus offered load for a set of
// routing mechanisms under one traffic pattern.
//
// Usage:
//
//	dfsweep -pattern ADVc -loads 0.05:0.6:0.05 -seeds 3
//	dfsweep -pattern UN -no-priority -csv fig5a.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dragonfly/internal/cli"
	"dragonfly/internal/report"
	"dragonfly/internal/routing"
	"dragonfly/internal/sweep"
)

func main() {
	fs := flag.NewFlagSet("dfsweep", flag.ExitOnError)
	build := new(cli.Base).Flags(fs)
	pattern := fs.String("pattern", "UN", "traffic pattern: UN, ADV+i, ADVc")
	mechs := fs.String("mechanisms", "MIN,Obl-RRG,Obl-CRG,Src-RRG,Src-CRG,In-Trns-RRG,In-Trns-CRG,In-Trns-MM",
		"comma-separated mechanisms ("+strings.Join(routing.Names(), ", ")+")")
	loads := fs.String("loads", "0.05:0.6:0.05", "loads: comma list or from:to:step")
	seeds := fs.Int("seeds", 3, "seed replicas per point (paper: 3)")
	csvPath := fs.String("csv", "", "also write the series as CSV to this file")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	jobs := fs.Int("jobs", 0, "concurrent simulations (0 = NumCPU)")
	reuse := fs.String("reuse", "construct",
		"network-state reuse across sweep points: off (cold build per point), construct (share wiring; bit-identical), warm (share warm-up too; approximate off the first load)")
	rewarm := fs.Int64("rewarm", -1, "re-warm cycles for warm reuse at non-template loads (-1: warmup/4)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	reuseMode, err := sweep.ParseReuse(*reuse)
	if err != nil {
		fatal(err)
	}

	cfg, err := build(cli.SplitList(*mechs), []string{*pattern})
	if err != nil {
		fatal(err)
	}
	loadList, err := cli.ParseLoads(*loads)
	if err != nil {
		fatal(err)
	}
	grid := sweep.Grid{
		Base:       cfg,
		Mechanisms: cli.SplitList(*mechs),
		Patterns:   []string{*pattern},
		Loads:      loadList,
		Seeds:      cli.ParseSeeds(cfg.Seed, *seeds),
		Workers:    *jobs,
	}
	if reuseMode != sweep.ReuseOff {
		grid.Snapshots = &sweep.SnapshotCache{Mode: reuseMode, ReWarm: *rewarm}
	}
	progress := func(done, total int) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\rdfsweep: %d/%d simulations", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	series, err := sweep.Aggregate(grid.Run(progress))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfsweep: warning:", err)
	}

	t := report.NewTable("Mechanism", "Pattern", "Load", "Latency(cyc)", "Throughput")
	for _, s := range series {
		t.AddRow(s.Mechanism, s.Pattern,
			fmt.Sprintf("%.3f", s.Load),
			fmt.Sprintf("%.1f", s.AvgLatency),
			fmt.Sprintf("%.4f", s.Throughput))
	}
	fmt.Print(t.String())
	if grid.Snapshots != nil {
		fmt.Fprintf(os.Stderr, "dfsweep: snapshot cache: %v\n", grid.Snapshots.Stats())
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := report.CurveCSV(f, series); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dfsweep: wrote %s\n", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfsweep:", err)
	os.Exit(1)
}

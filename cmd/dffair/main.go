// dffair reproduces the paper's fairness artefacts: the per-router
// injection histograms of Figures 4 and 6 and the fairness metric tables
// (Tables II and III), for a configurable arbitration policy.
//
// Usage:
//
//	dffair -load 0.4 -seeds 3               # Figure 4 + Table II (priority)
//	dffair -load 0.4 -priority=false        # Figure 6 + Table III
//	dffair -age                             # the future-work fix
package main

import (
	"flag"
	"fmt"
	"os"

	"dragonfly/internal/cli"
	"dragonfly/internal/report"
	"dragonfly/internal/sweep"
)

func main() {
	fs := flag.NewFlagSet("dffair", flag.ExitOnError)
	build := new(cli.Base).Flags(fs)
	pattern := fs.String("pattern", "ADVc", "traffic pattern")
	mechs := fs.String("mechanisms", "Obl-RRG,Obl-CRG,Src-RRG,Src-CRG,In-Trns-RRG,In-Trns-CRG,In-Trns-MM",
		"comma-separated mechanisms")
	load := fs.Float64("load", 0.4, "offered load (paper: 0.4)")
	seeds := fs.Int("seeds", 3, "seed replicas (paper: 3)")
	group := fs.Int("group", 0, "group whose routers to list")
	jobs := fs.Int("jobs", 0, "concurrent simulations (0 = NumCPU)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	cfg, err := build(cli.SplitList(*mechs), []string{*pattern})
	if err != nil {
		fatal(err)
	}
	grid := sweep.Grid{
		Base:       cfg,
		Mechanisms: cli.SplitList(*mechs),
		Patterns:   []string{*pattern},
		Loads:      []float64{*load},
		Seeds:      cli.ParseSeeds(cfg.Seed, *seeds),
		Workers:    *jobs,
	}
	series, err := sweep.Aggregate(grid.Run(nil))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dffair: warning:", err)
	}

	fmt.Printf("Injected packets per router of group %d (%s @ %.2f, arbitration %v):\n\n",
		*group, *pattern, *load, cfg.Router.Arbitration)
	fmt.Print(report.InjectionTable(series, *group, cfg.Topology.A).String())
	fmt.Printf("\nNetwork-wide fairness metrics:\n\n")
	fmt.Print(report.FairnessTable(series).String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dffair:", err)
	os.Exit(1)
}

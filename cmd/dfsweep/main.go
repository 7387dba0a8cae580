// dfsweep runs a mechanism × pattern × load × seed grid and renders it
// (-report) as latency and throughput versus load (curves, the default:
// Figures 2 and 5), the injections per router of one -group with the
// fairness metrics (fair, one pattern at one load: Figures 4 and 6, Tables
// II and III) or the latency breakdown (breakdown, one mechanism under one
// pattern: Figure 3).
//
// Usage:
//
//	dfsweep -pattern ADVc -loads 0.05:0.6:0.05 -seeds 3
//	dfsweep -pattern UN -priority=false -csv fig5a.csv
//	dfsweep -report fair -pattern ADVc -mechanisms Src-RRG,In-Trns-MM -loads 0.4
//	dfsweep -report breakdown -pattern ADVc -mechanisms In-Trns-MM -loads 0.05:1.0:0.05 -csv fig3.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dragonfly/internal/cli"
	"dragonfly/internal/experiments"
	"dragonfly/internal/routing"
	"dragonfly/internal/sweep"
)

func main() {
	fs := flag.NewFlagSet("dfsweep", flag.ExitOnError)
	build := new(cli.Base).Flags(fs)
	reportName := fs.String("report", "curves", "what to render: curves, fair or breakdown")
	pattern := fs.String("pattern", "UN", "comma-separated traffic patterns: UN, ADV+i, ADVc")
	mechs := fs.String("mechanisms", "MIN,Obl-RRG,Obl-CRG,Src-RRG,Src-CRG,In-Trns-RRG,In-Trns-CRG,In-Trns-MM",
		"comma-separated mechanisms ("+strings.Join(routing.Names(), ", ")+")")
	loads := fs.String("loads", "0.05:0.6:0.05", "loads: comma list or from:to:step")
	seeds := fs.Int("seeds", 3, "seed replicas per point (paper: 3)")
	group := fs.Int("group", 0, "group whose routers -report fair lists")
	csvPath := fs.String("csv", "", "also write the curves or breakdown as CSV to this file")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	startProf := cli.ProfileFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	stopProf, err := startProf()
	if err != nil {
		fatal(err)
	}
	kind, err := experiments.ParseKind(*reportName)
	if err != nil {
		fatal(err)
	}

	mechList, patterns := cli.SplitList(*mechs), cli.SplitList(*pattern)
	cfg, err := build(mechList, patterns)
	if err != nil {
		fatal(err)
	}
	loadList, err := cli.ParseLoads(*loads)
	if err != nil {
		fatal(err)
	}
	seedList, err := cli.ParseSeeds(cfg.Seed, *seeds)
	if err != nil {
		fatal(err)
	}
	groupSet := false
	fs.Visit(func(f *flag.Flag) { groupSet = groupSet || f.Name == "group" })
	// The fairness and breakdown tables have no column for the axes they
	// fix, so a grid that varies one is refused rather than mixed.
	switch {
	case kind == experiments.FairnessTables && (len(patterns) != 1 || len(loadList) != 1):
		fatal(fmt.Errorf("-report fair renders one pattern at one load, got %d patterns and %d loads", len(patterns), len(loadList)))
	case kind == experiments.FairnessTables && *csvPath != "":
		fatal(fmt.Errorf("-report fair has no CSV"))
	case kind == experiments.Breakdown && (len(mechList) != 1 || len(patterns) != 1):
		fatal(fmt.Errorf("-report breakdown renders one mechanism under one pattern, got %d mechanisms and %d patterns", len(mechList), len(patterns)))
	case groupSet && kind != experiments.FairnessTables:
		fatal(fmt.Errorf("-group applies only to -report fair"))
	case *group < 0 || *group >= cfg.Topology.Groups():
		fatal(fmt.Errorf("-group %d outside [0, %d)", *group, cfg.Topology.Groups()))
	}

	grid := sweep.Grid{
		Base:       cfg,
		Mechanisms: mechList,
		Patterns:   patterns,
		Loads:      loadList,
		Seeds:      seedList,
		Snapshots:  &sweep.SnapshotCache{},
	}
	progress := func(done, total int) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\rdfsweep: %d/%d simulations", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	series, aggErr := sweep.AggregateRecords(grid.Run(progress))
	fmt.Fprintf(os.Stderr, "dfsweep: snapshot cache: %v\n", grid.Snapshots.Stats())

	switch kind {
	case experiments.FairnessTables:
		fmt.Printf("Injected packets per router of group %d (%s @ %.2f, arbitration %v):\n\n",
			*group, patterns[0], loadList[0], cfg.Router.Arbitration)
	case experiments.Breakdown:
		fmt.Printf("Latency breakdown for %s under %s:\n\n", mechList[0], patterns[0])
	}
	render := func(csv io.Writer) error {
		return experiments.Render(os.Stdout, csv, kind, series, *group, cfg.Topology.A)
	}
	if *csvPath == "" {
		err = render(nil)
	} else if err = cli.WriteFile(*csvPath, render); err == nil {
		fmt.Fprintf(os.Stderr, "dfsweep: wrote %s\n", *csvPath)
	}
	if err != nil {
		fatal(err)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
	// What survived is rendered; a failed point still fails the run.
	if aggErr != nil {
		fatal(aggErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfsweep:", err)
	os.Exit(1)
}

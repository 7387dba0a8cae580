// dfbreakdown reproduces Figure 3: the decomposition of average packet
// latency into base, misrouting, local/global congestion and injection
// queueing components across injection rates, for one routing mechanism
// under one pattern.
//
// Usage:
//
//	dfbreakdown                          # In-Trns-MM under ADVc, as in the paper
//	dfbreakdown -mechanism Src-RRG -csv fig3.csv
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
	fs := flag.NewFlagSet("dfbreakdown", flag.ExitOnError)
	build := new(cli.Base).Flags(fs)
	mech := fs.String("mechanism", "In-Trns-MM", "routing mechanism")
	pattern := fs.String("pattern", "ADVc", "traffic pattern")
	loads := fs.String("loads", "0.05:1.0:0.05", "loads: comma list or from:to:step")
	seeds := fs.Int("seeds", 3, "seed replicas")
	csvPath := fs.String("csv", "", "also write components as CSV to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	cfg, err := build([]string{*mech}, []string{*pattern})
	if err != nil {
		fatal(err)
	}
	loadList, err := cli.ParseLoads(*loads)
	if err != nil {
		fatal(err)
	}
	grid := sweep.Grid{
		Base:       cfg,
		Mechanisms: []string{*mech},
		Patterns:   []string{*pattern},
		Loads:      loadList,
		Seeds:      cli.ParseSeeds(cfg.Seed, *seeds),
	}
	series, err := sweep.Aggregate(grid.Run(nil))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfbreakdown: warning:", err)
	}

	fmt.Printf("Latency breakdown for %s under %s:\n\n", *mech, *pattern)
	fmt.Print(report.BreakdownTable(series).String())

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := report.BreakdownCSV(f, series); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dfbreakdown: wrote %s\n", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfbreakdown:", err)
	os.Exit(1)
}

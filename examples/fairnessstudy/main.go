// Fairness study: compare every routing mechanism and arbitration policy
// under ADVc traffic, reproducing the structure of Tables II and III and
// evaluating the paper's proposed future work (age-based arbitration).
//
//	go run ./examples/fairnessstudy          # full study
//	go run ./examples/fairnessstudy -short   # CI-sized
package main

import (
	"flag"
	"fmt"
	"log"

	"dragonfly"

	"dragonfly/internal/cli"
	"dragonfly/internal/report"
	"dragonfly/internal/sweep"
)

func main() {
	short := flag.Bool("short", false, "shrink the study to CI size")
	flag.Parse()

	base := dragonfly.DefaultConfig()
	base.Topology = dragonfly.Balanced(3)
	base.WarmupCycles = 3000
	base.MeasureCycles = 6000
	seeds := 3
	if *short {
		base.WarmupCycles = 1000
		base.MeasureCycles = 2000
		seeds = 1
	}

	mechanisms := []string{
		"Obl-RRG", "Obl-CRG", "Src-RRG", "Src-CRG",
		"In-Trns-RRG", "In-Trns-CRG", "In-Trns-MM",
	}
	arbitrations := []struct {
		name string
		arb  dragonfly.Arbitration
	}{
		{"transit-over-injection priority (Table II)", dragonfly.TransitOverInjection},
		{"no priority / round-robin (Table III)", dragonfly.RoundRobin},
		{"age-based arbitration (paper's future work)", dragonfly.AgeBased},
	}

	seedList, err := cli.ParseSeeds(1, seeds)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range arbitrations {
		cfg := base
		cfg.Router.Arbitration = a.arb
		grid := sweep.Grid{
			Base:       cfg,
			Mechanisms: mechanisms,
			Patterns:   []string{"ADVc"},
			Loads:      []float64{0.4},
			Seeds:      seedList,
		}
		series, err := sweep.AggregateRecords(grid.Run(nil))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n\n", a.name)
		fmt.Print(report.FairnessTable(series).String())
		fmt.Println()
	}

	fmt.Println("Reading the tables: with the priority, the adaptive mechanisms")
	fmt.Println("(Src-*, In-Trns-CRG/MM) starve the bottleneck router (low Min inj,")
	fmt.Println("high Max/Min and CoV); oblivious routing stays fair. Removing the")
	fmt.Println("priority restores most fairness; age arbitration removes the")
	fmt.Println("unfairness entirely — the explicit mechanism the paper calls for.")
}

// Load sweep: reproduce the shape of Figure 2c (latency and throughput vs
// offered load under ADVc) at laptop scale and print the curves as an
// ASCII chart.
//
//	go run ./examples/loadsweep          # full sweep
//	go run ./examples/loadsweep -short   # CI-sized
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"dragonfly"

	"dragonfly/internal/cli"
	"dragonfly/internal/sweep"
)

func main() {
	short := flag.Bool("short", false, "shrink the sweep to CI size")
	flag.Parse()

	base := dragonfly.DefaultConfig()
	base.Topology = dragonfly.Balanced(3)
	base.Router.Arbitration = dragonfly.TransitOverInjection
	base.WarmupCycles = 3000
	base.MeasureCycles = 5000

	mechanisms := []string{"MIN", "Obl-RRG", "Src-RRG", "In-Trns-MM"}
	loads := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.6}
	seeds := 2
	if *short {
		base.WarmupCycles = 1000
		base.MeasureCycles = 2000
		loads = []float64{0.1, 0.3, 0.5}
		seeds = 1
	}

	seedList, err := cli.ParseSeeds(1, seeds)
	if err != nil {
		log.Fatal(err)
	}
	grid := sweep.Grid{
		Base:       base,
		Mechanisms: mechanisms,
		Patterns:   []string{"ADVc"},
		Loads:      loads,
		Seeds:      seedList,
	}
	fmt.Println("sweeping", len(grid.Points()), "simulations (ADVc, transit priority)...")
	series, err := sweep.AggregateRecords(grid.Run(nil))
	if err != nil {
		log.Fatal(err)
	}

	byMech := make(map[string][]sweep.Series)
	for _, s := range series {
		byMech[s.Mechanism] = append(byMech[s.Mechanism], s)
	}

	fmt.Println("\naccepted load vs offered load (phits/node/cycle):")
	fmt.Println("  each column block: offered | accepted | bar")
	for _, m := range mechanisms {
		fmt.Printf("\n%s:\n", m)
		for _, s := range byMech[m] {
			bar := strings.Repeat("#", int(s.Throughput*80))
			fmt.Printf("  %.2f | %.3f | %s\n", s.Load, s.Throughput, bar)
		}
	}

	fmt.Println("\nShapes to observe (Figure 2c): MIN saturates near h/(a*p); the")
	fmt.Println("nonminimal mechanisms lift throughput well beyond it, and the")
	fmt.Println("in-transit adaptive mechanism reaches the highest accepted load")
	fmt.Println("— while (see the fairness examples) starving the bottleneck router.")
}

package dragonfly

// Benchmarks, one per table and figure of the paper's evaluation section.
// Each benchmark runs the corresponding experiment on a scaled-down
// balanced Dragonfly (the full-size reproduction is `dfexperiments -full`)
// and reports the headline quantity of that artefact as a custom metric, so
// `go test -bench=. -benchmem` regenerates the paper's series:
//
//	BenchmarkFig2* / BenchmarkFig5*  — accepted load and latency per pattern
//	BenchmarkFig3                    — latency-breakdown components
//	BenchmarkFig4 / BenchmarkFig6    — bottleneck injection share
//	BenchmarkTable2 / BenchmarkTable3 — CoV fairness metric
//	BenchmarkExtAge                  — the age-arbitration extension
//	BenchmarkAblation*               — design-choice ablations (DESIGN.md)
//	BenchmarkEngine*                 — engine micro/scaling benchmarks
//
// Benchmarks use reduced cycle counts per iteration; the reported custom
// metrics (thr=phits/node/cycle, cov, lat=cycles) are still meaningful
// because every effect the paper reports is visible at this scale (see
// EXPERIMENTS.md).

import (
	"testing"

	"dragonfly/internal/refmodel"
	"dragonfly/internal/router"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// benchCfg is the common scaled configuration for figure benchmarks.
func benchCfg(mech, pattern string, load float64, arb Arbitration) Config {
	cfg := DefaultConfig()
	cfg.Topology = Balanced(3)
	cfg.Mechanism = mech
	cfg.Pattern = pattern
	cfg.Load = load
	cfg.WarmupCycles = 1500
	cfg.MeasureCycles = 3000
	cfg.Router.Arbitration = arb
	cfg.Workers = 1
	return cfg
}

func runBench(b *testing.B, cfg Config) *Result {
	b.Helper()
	var res *Result
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err = Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// reportPerf attaches the figure's y-axis values as custom metrics.
func reportPerf(b *testing.B, res *Result) {
	b.ReportMetric(res.Throughput(), "thr")
	b.ReportMetric(res.AvgLatency(), "lat")
}

// ---- Figure 2: latency/throughput with transit priority ----

func BenchmarkFig2aUniformPriority(b *testing.B) {
	for _, mech := range []string{"MIN", "Obl-CRG", "Src-RRG", "In-Trns-MM"} {
		b.Run(mech, func(b *testing.B) {
			reportPerf(b, runBench(b, benchCfg(mech, "UN", 0.5, TransitOverInjection)))
		})
	}
}

func BenchmarkFig2bAdversarialPriority(b *testing.B) {
	for _, mech := range []string{"MIN", "Obl-RRG", "Src-CRG", "In-Trns-MM"} {
		b.Run(mech, func(b *testing.B) {
			reportPerf(b, runBench(b, benchCfg(mech, "ADV+1", 0.35, TransitOverInjection)))
		})
	}
}

func BenchmarkFig2cConsecutivePriority(b *testing.B) {
	for _, mech := range []string{"MIN", "Obl-RRG", "Src-RRG", "In-Trns-MM"} {
		b.Run(mech, func(b *testing.B) {
			reportPerf(b, runBench(b, benchCfg(mech, "ADVc", 0.35, TransitOverInjection)))
		})
	}
}

// ---- Figure 3: latency breakdown for In-Trns-MM under ADVc ----

func BenchmarkFig3LatencyBreakdown(b *testing.B) {
	for _, load := range []float64{0.15, 0.40} {
		b.Run(loadName(load), func(b *testing.B) {
			res := runBench(b, benchCfg("In-Trns-MM", "ADVc", load, TransitOverInjection))
			br := res.Breakdown()
			b.ReportMetric(br.Base, "base")
			b.ReportMetric(br.Misroute, "misroute")
			b.ReportMetric(br.WaitLocal, "congL")
			b.ReportMetric(br.WaitGlobal, "congG")
			b.ReportMetric(br.WaitInj, "injQ")
		})
	}
}

func loadName(l float64) string {
	return "load" + string([]byte{'0' + byte(l*10)%10}) + string([]byte{'0' + byte(l*100)%10})
}

// ---- Figures 4/6 and Tables II/III: fairness under ADVc @ 0.4 ----

// bottleneckShare reports the bottleneck router's injections relative to
// the mean of its group peers (1.0 = perfectly fair, ~0 = starved).
func bottleneckShare(res *Result, params TopologyParams) float64 {
	topo := topology.New(params)
	bneck, _ := topo.GlobalRouterFor(0, 1) // the router ADVc congests
	inj := res.GroupInjections(0)
	var others int64
	for i, v := range inj {
		if i != bneck {
			others += v
		}
	}
	mean := float64(others) / float64(len(inj)-1)
	if mean == 0 {
		return 1
	}
	return float64(inj[bneck]) / mean
}

func benchFairness(b *testing.B, arb Arbitration) {
	for _, mech := range []string{"Obl-RRG", "Src-RRG", "In-Trns-CRG", "In-Trns-MM"} {
		b.Run(mech, func(b *testing.B) {
			cfg := benchCfg(mech, "ADVc", 0.4, arb)
			res := runBench(b, cfg)
			f := res.Fairness()
			b.ReportMetric(f.CoV, "cov")
			b.ReportMetric(f.MinInj, "minInj")
			b.ReportMetric(bottleneckShare(res, cfg.Topology), "bneckShare")
		})
	}
}

func BenchmarkFig4Table2FairnessPriority(b *testing.B) {
	benchFairness(b, TransitOverInjection)
}

func BenchmarkFig6Table3FairnessNoPriority(b *testing.B) {
	benchFairness(b, RoundRobin)
}

// ---- Figure 5: the Figure 2 sweeps without the priority ----

func BenchmarkFig5aUniformNoPriority(b *testing.B) {
	reportPerf(b, runBench(b, benchCfg("MIN", "UN", 0.5, RoundRobin)))
}

func BenchmarkFig5bAdversarialNoPriority(b *testing.B) {
	reportPerf(b, runBench(b, benchCfg("In-Trns-MM", "ADV+1", 0.35, RoundRobin)))
}

func BenchmarkFig5cConsecutiveNoPriority(b *testing.B) {
	reportPerf(b, runBench(b, benchCfg("In-Trns-MM", "ADVc", 0.35, RoundRobin)))
}

// ---- Extension: age-based arbitration (the paper's future work) ----

func BenchmarkExtAgeArbitrationFairness(b *testing.B) {
	benchFairness(b, AgeBased)
}

// ---- Ablations (DESIGN.md design choices) ----

// The in-transit congestion threshold governs when traffic diverts.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []float64{0.2, 0.43, 0.7} {
		b.Run(loadName(th), func(b *testing.B) {
			cfg := benchCfg("In-Trns-MM", "ADVc", 0.4, TransitOverInjection)
			cfg.Router.CongestionThreshold = th
			res := runBench(b, cfg)
			b.ReportMetric(res.Throughput(), "thr")
			b.ReportMetric(res.Fairness().CoV, "cov")
		})
	}
}

// Opportunistic local misrouting (OLM) on/off.
func BenchmarkAblationLocalMisroute(b *testing.B) {
	for _, olm := range []bool{true, false} {
		name := "olm-on"
		if !olm {
			name = "olm-off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchCfg("In-Trns-MM", "ADVc", 0.4, TransitOverInjection)
			cfg.Routing.LocalMisroute = olm
			res := runBench(b, cfg)
			b.ReportMetric(res.Throughput(), "thr")
			b.ReportMetric(res.AvgLatency(), "lat")
		})
	}
}

// Global link arrangement: palmtree vs consecutive.
func BenchmarkAblationArrangement(b *testing.B) {
	for _, arr := range []topology.Arrangement{topology.Palmtree, topology.Consecutive} {
		b.Run(arr.String(), func(b *testing.B) {
			cfg := benchCfg("In-Trns-MM", "ADVc", 0.4, TransitOverInjection)
			cfg.Topology.Arrangement = arr
			res := runBench(b, cfg)
			b.ReportMetric(res.Fairness().CoV, "cov")
		})
	}
}

// ---- Engine benchmarks ----

// Cycle throughput of the sequential engine (cycles/sec reported as the
// inverse of ns/op over the configured cycle count).
func BenchmarkEngineSequential(b *testing.B) {
	cfg := benchCfg("In-Trns-MM", "UN", 0.3, RoundRobin)
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 800
	runBench(b, cfg)
	b.ReportMetric(float64(cfg.WarmupCycles+cfg.MeasureCycles), "cycles/op")
}

// Parallel engine scaling.
func BenchmarkEngineParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(workerName(workers), func(b *testing.B) {
			cfg := benchCfg("In-Trns-MM", "UN", 0.3, RoundRobin)
			cfg.Topology = Balanced(4) // big enough to amortise barriers
			cfg.WarmupCycles = 100
			cfg.MeasureCycles = 400
			cfg.Workers = workers
			runBench(b, cfg)
		})
	}
}

func workerName(w int) string {
	return "workers" + string([]byte{'0' + byte(w)})
}

// The oracle's router step cost in isolation (the dense per-cycle path the
// core is measured against).
func BenchmarkRouterStep(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Load = 0.4
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "ADVc"
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.Workers = 0, 2000, 1
	net, err := refmodel.NewNetwork(&cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the network into steady state.
	if err := refmodel.Run(net, &cfg); err != nil {
		b.Fatal(err)
	}
	routers := refmodel.Of(net).Routers
	b.ResetTimer()
	now := int64(2000)
	for i := 0; i < b.N; i++ {
		routers[i%len(routers)].Step(now)
		if i%len(routers) == len(routers)-1 {
			now++
		}
	}
}

// Routing decision cost (NextHop on a congested view).
func BenchmarkNextHop(b *testing.B) {
	topo := topology.New(Balanced(6))
	cfg := router.DefaultConfig()
	mech, err := routing.ByName("In-Trns-MM")
	if err != nil {
		b.Fatal(err)
	}
	cfg.LocalVCs, cfg.GlobalVCs = mech.VCNeeds()
	env := &routing.Env{Topo: topo, Cfg: routing.DefaultConfig(),
		PacketSize: cfg.PacketSize, LocalVCs: cfg.LocalVCs, GlobalVCs: cfg.GlobalVCs}
	core, err := router.NewCore(router.Wiring{
		Topo: topo, Cfg: &cfg, Mech: mech, Rng: rngSource(),
		Latency: sim.DefaultConfig().LatencyModel,
		Binding: router.Binding{Env: env},
	})
	if err != nil {
		b.Fatal(err)
	}
	r := &core.Views()[0]
	p := newBenchPacket(topo)
	rnd := rngSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech.NextHop(env, r, p, topology.InjectionPort, rnd)
	}
}

// Topology queries on the full-size network.
func BenchmarkTopologyMinimalPath(b *testing.B) {
	topo := topology.New(Balanced(6))
	n := topo.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.MinimalPathLength(i%n, (i*7919)%n)
	}
}

func BenchmarkNetworkConstructionFullSize(b *testing.B) {
	cfg := PaperConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewNetwork(&cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

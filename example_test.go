package dragonfly_test

import (
	"fmt"
	"strings"

	"dragonfly"
)

// Run a small simulation and read its headline metrics.
func ExampleRun() {
	cfg := dragonfly.DefaultConfig()
	cfg.Mechanism = "MIN"
	cfg.Pattern = "UN"
	cfg.Load = 0.2
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2000

	res := must(dragonfly.Run(cfg))
	fmt.Printf("accepted within 5%% of offered: %v\n",
		res.Throughput() > 0.19 && res.Throughput() < 0.21)
	fmt.Printf("some packets delivered: %v\n", res.Delivered() > 0)
	// Output:
	// accepted within 5% of offered: true
	// some packets delivered: true
}

// The ADVc unfairness signature: with transit-over-injection priority the
// bottleneck router of each group injects far less than its peers.
func ExampleResult_GroupInjections() {
	cfg := section3()
	cfg.Pattern = "ADVc"
	cfg.WarmupCycles, cfg.MeasureCycles = 2000, 4000

	res := must(dragonfly.Run(cfg))
	inj := res.GroupInjections(0)
	bottleneck := inj[len(inj)-1] // router a-1 owns the +1..+h links
	var peers int64
	for _, v := range inj[:len(inj)-1] {
		peers += v
	}
	mean := peers / int64(len(inj)-1)
	fmt.Printf("bottleneck starved below half its peers: %v\n", bottleneck*2 < mean)
	// Output:
	// bottleneck starved below half its peers: true
}

// Balanced returns the canonical balanced sizing; Balanced(6) is the
// paper's Table I network.
func ExampleBalanced() {
	p := dragonfly.Balanced(6)
	fmt.Println(p.Groups(), "groups,", p.Routers(), "routers,", p.Nodes(), "nodes")
	// Output:
	// 73 groups, 876 routers, 5256 nodes
}

// must returns v, or panics with err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// section3 is the Section III operating point at h=3: In-Trns-MM under
// transit-over-injection priority, load 0.4, 500 + 1,500 cycles.
func section3() dragonfly.Config {
	cfg := dragonfly.DefaultConfig()
	cfg.Topology = dragonfly.Balanced(3)
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.4
	cfg.Router.Arbitration = dragonfly.TransitOverInjection
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.Workers = 500, 1500, 4
	return cfg
}

// Section III: an application on h+1 consecutive groups, communicating
// uniformly, makes ADVc traffic, and the router of group 0 that owns the
// links to the next h groups starves.
func ExampleRunWithAppTraffic() {
	cfg := section3()
	apps := cfg.Topology.H + 1 // the allocation size that reproduces ADVc exactly
	fmt.Printf("Application allocated on groups 0..%d of a %d-group Dragonfly,\n", apps-1, cfg.Topology.Groups())
	fmt.Printf("processes communicating uniformly (no adversarial intent).\n\n")
	res := must(dragonfly.RunWithAppTraffic(cfg, 0, apps))
	fmt.Printf("injected packets per router of group 0 (allocation member):\n")
	for i, n := range res.GroupInjections(0) {
		fmt.Printf("  R%-2d %5d\n", i, n)
	}
	fmt.Printf("\ninjected packets per router of group %d (outside the job): %v\n", apps+1, res.GroupInjections(apps+1))
	fmt.Printf("\naccepted load %.3f phits/node/cycle, avg latency %.1f cycles\n", res.Throughput(), res.AvgLatency())
	fmt.Println("\nThe bottleneck router of each member group starves, although the")
	fmt.Println("application's own communication pattern is perfectly uniform —")
	fmt.Println("the pathology is created by the allocation, not the workload.")
	// Output:
	// Application allocated on groups 0..3 of a 19-group Dragonfly,
	// processes communicating uniformly (no adversarial intent).
	//
	// injected packets per router of group 0 (allocation member):
	//   R0    207
	//   R1    216
	//   R2    239
	//   R3    197
	//   R4    220
	//   R5    133
	//
	// injected packets per router of group 5 (outside the job): [0 0 0 0 0 0]
	//
	// accepted load 0.079 phits/node/cycle, avg latency 230.5 cycles
	//
	// The bottleneck router of each member group starves, although the
	// application's own communication pattern is perfectly uniform —
	// the pathology is created by the allocation, not the workload.
}

// Two identical jobs: the victim on consecutive groups, the aggressor
// consecutive too or spread. Interference is the latency in the mix over
// the same placement alone, so it separates self-harm from contention.
func ExampleJobInterferenceFromSolo() {
	cfg := section3()
	nodes := (cfg.Topology.H + 1) * cfg.Topology.A * cfg.Topology.P
	for _, aggAlloc := range []string{"consecutive", "spread"} {
		wl := must(dragonfly.CompileWorkload(cfg, dragonfly.WorkloadSpec{Jobs: []dragonfly.WorkloadJob{
			{Name: "victim", Nodes: nodes, Alloc: "consecutive", FirstGroup: 0},
			{Name: "aggressor", Nodes: nodes, Alloc: aggAlloc, FirstGroup: cfg.Topology.H + 1},
		}}))
		res := must(dragonfly.RunCompiledWorkload(cfg, wl))
		solo := must(dragonfly.JobSoloLatencies(cfg, wl)) // GOMAXPROCS ÷ cfg.Workers at once: each holds a network
		interf := dragonfly.JobInterferenceFromSolo(res, solo)
		fmt.Printf("aggressor placed %s:\n", aggAlloc)
		for j := range res.NumJobs() {
			fmt.Printf("  %-10s thr/node %.3f  avg lat %6.1f  intra-job CoV %.3f  interference %.2fx\n",
				res.JobNames[j], res.JobThroughput(j), res.JobAvgLatency(j), res.JobFairness(j).CoV, interf[j])
		}
		fmt.Println()
	}
	fmt.Println("Same applications, same loads — only the placement differs. The")
	fmt.Println("compact job's latency and intra-job unfairness are created by its")
	fmt.Println("own allocation (ADVc at its member groups), which is exactly the")
	fmt.Println("paper's Section III point about realistic scheduler-driven traffic.")
	// Output:
	// aggressor placed consecutive:
	//   victim     thr/node 0.376  avg lat  229.0  intra-job CoV 0.131  interference 0.99x
	//   aggressor  thr/node 0.386  avg lat  230.0  intra-job CoV 0.145  interference 0.99x
	//
	// aggressor placed spread:
	//   victim     thr/node 0.376  avg lat  226.9  intra-job CoV 0.132  interference 0.98x
	//   aggressor  thr/node 0.399  avg lat  183.0  intra-job CoV 0.089  interference 1.00x
	//
	// Same applications, same loads — only the placement differs. The
	// compact job's latency and intra-job unfairness are created by its
	// own allocation (ADVc at its member groups), which is exactly the
	// paper's Section III point about realistic scheduler-driven traffic.
}

// The Section III skew as a job stream that arrives faster than it drains:
// consecutive jobs rebuild the bottleneck and run longer, and the queue
// compounds that into the tail turnaround and the makespan.
func ExampleRunSchedule() {
	cfg := section3()
	cfg.WarmupCycles, cfg.MeasureCycles = 2000, 6000
	// Load 0.7 is past ADVc saturation, and an arrival every 100 cycles
	// outpaces the machine's four concurrent 4-group slots.
	load, njobs, target, interval := 0.7, 6, int64(3000), int64(100)
	groups := cfg.Topology.H + 1
	nodes := groups * cfg.Topology.A * cfg.Topology.P
	solo := must(dragonfly.RunSchedule(cfg, dragonfly.ScheduleTrace{Jobs: []dragonfly.ScheduleJob{
		{JobSpec: dragonfly.WorkloadJob{Name: "app", Nodes: nodes, Alloc: "consecutive", Load: load}},
	}}))
	f := solo.Sim.JobFairness(0)
	fmt.Printf("static signature: one %d-node job on %d consecutive groups, load %.1f\n", nodes, groups, load)
	fmt.Printf("  intra-job injection skew: max/min %.2f, CoV %.3f (the Section III bottleneck)\n\n", f.MaxMin, f.CoV)

	for _, alloc := range []string{"consecutive", "spread"} {
		var tr dragonfly.ScheduleTrace
		for i := range njobs {
			tr.Jobs = append(tr.Jobs, dragonfly.ScheduleJob{
				JobSpec: dragonfly.WorkloadJob{Name: fmt.Sprintf("%s%d", alloc[:4], i), Nodes: nodes, Alloc: alloc, Load: load},
				Arrival: interval * int64(i), Duration: target, DurationKind: "packets",
			})
		}
		res := must(dragonfly.RunSchedule(cfg, tr))
		fmt.Printf("== %d-job stream, alloc=%s (target %d packets/job, arrival every %d cycles)\n", njobs, alloc, target, interval)
		fmt.Printf("Job    Nodes  Alloc        Arrival  Start  Wait  Completion  Run  Slowdown  Delivered\n%s\n", strings.Repeat("-", 85))
		var p99 int64 // the nearest-rank P99 of fewer than 100 turnarounds is the largest
		for _, j := range res.Jobs {
			fmt.Printf("%-5s  %-5d  %-11s  %-7d  %-5d  %-4d  %-10d  %-3d  %-8.2f  %d\n",
				j.Name, j.Nodes, j.Alloc, j.Arrival, j.Start, j.Wait, j.Completion, j.Run, j.Slowdown, j.Delivered)
			p99 = max(p99, j.Completion-j.Arrival)
		}
		fmt.Printf("completed %d/%d, makespan %d, turnaround P99 %d, slowdown P50 %.2f P99 %.2f\n\n",
			res.Completed, len(res.Jobs), res.Makespan, p99, res.SlowdownQuantile(0.50), res.SlowdownQuantile(0.99))
	}
	fmt.Println("Consecutive placement makes every job rebuild the paper's bottleneck:")
	fmt.Println("its starved routers throttle the packet target, so every run stretches;")
	fmt.Println("late arrivals then inherit that stretch again as queueing delay, and the")
	fmt.Println("tail turnaround and makespan grow twice over. Spread placement dissolves")
	fmt.Println("the bottleneck, and the whole schedule tightens with it.")
	// Output:
	// static signature: one 72-node job on 4 consecutive groups, load 0.7
	//   intra-job injection skew: max/min 3.39, CoV 0.227 (the Section III bottleneck)
	//
	// == 6-job stream, alloc=consecutive (target 3000 packets/job, arrival every 100 cycles)
	// Job    Nodes  Alloc        Arrival  Start  Wait  Completion  Run  Slowdown  Delivered
	// -------------------------------------------------------------------------------------
	// cons0  72     consecutive  0        0      0     775         775  1.00      4767
	// cons1  72     consecutive  100      100    0     856         756  1.00      4824
	// cons2  72     consecutive  200      200    0     970         770  1.00      4808
	// cons3  72     consecutive  300      300    0     1054        754  1.00      4717
	// cons4  72     consecutive  400      775    375   1565        790  1.47      5011
	// cons5  72     consecutive  500      856    356   1661        805  1.44      5117
	// completed 6/6, makespan 1661, turnaround P99 1165, slowdown P50 1.00 P99 1.47
	//
	// == 6-job stream, alloc=spread (target 3000 packets/job, arrival every 100 cycles)
	// Job    Nodes  Alloc        Arrival  Start  Wait  Completion  Run  Slowdown  Delivered
	// -------------------------------------------------------------------------------------
	// spre0  72     spread       0        0      0     688         688  1.00      4351
	// spre1  72     spread       100      100    0     805         705  1.00      4373
	// spre2  72     spread       200      200    0     894         694  1.00      4377
	// spre3  72     spread       300      300    0     992         692  1.00      4364
	// spre4  72     spread       400      688    288   1392        704  1.41      4433
	// spre5  72     spread       500      805    305   1489        684  1.45      4371
	// completed 6/6, makespan 1489, turnaround P99 992, slowdown P50 1.00 P99 1.45
	//
	// Consecutive placement makes every job rebuild the paper's bottleneck:
	// its starved routers throttle the packet target, so every run stretches;
	// late arrivals then inherit that stretch again as queueing delay, and the
	// tail turnaround and makespan grow twice over. Spread placement dissolves
	// the bottleneck, and the whole schedule tightens with it.
}

// One generated population (~two thirds of the node-cycles offered) under
// three disciplines: FCFS blocks behind the head job, backfill starts any
// job that fits, EASY only one that cannot delay the head's reservation.
func ExampleRunGeneratedTrace() {
	cfg := dragonfly.DefaultConfig() // balanced h=2: 9 groups, 72 nodes
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.WarmupCycles, cfg.MeasureCycles = 200, 1<<40 // a cap only: a run ends at its last departure
	const jobs = 1500
	gt := must(dragonfly.GenerateTrace(dragonfly.GenSpec{Jobs: jobs, InterArrival: 25,
		NodesMedian: 8, NodesSigma: 0.7, MaxNodes: 72, DurMedian: 200, DurSigma: 0.7}, 1))
	fmt.Printf("== one job population, three disciplines (%d jobs) ==\n\n", jobs)
	fmt.Printf("Discipline  Util    WaitMean  SlowP50  SlowP99  SlowMean  Makespan\n%s\n", strings.Repeat("-", 66))
	for _, disc := range []string{"fcfs", "backfill", "easy"} {
		res := must(dragonfly.RunGeneratedTrace(cfg, gt, disc))
		if res.Completed != jobs {
			panic(disc + ": a job did not complete")
		}
		fmt.Printf("%-10s  %.4f  %-8.1f  %-7.2f  %-7.2f  %-8.2f  %d\n", disc, res.Utilization, res.WaitMean,
			res.Slowdown.Quantile(0.50), res.Slowdown.Quantile(0.99), res.SlowdownMean, res.LastDeparture)
	}
	fmt.Println("\nFCFS idles the machine behind blocked head jobs; aggressive")
	fmt.Println("backfill fills it but delays the biggest jobs; EASY keeps the")
	fmt.Println("utilization while honouring the head job's reservation.")
	// Output:
	// == one job population, three disciplines (1500 jobs) ==
	//
	// Discipline  Util    WaitMean  SlowP50  SlowP99  SlowMean  Makespan
	// ------------------------------------------------------------------
	// fcfs        0.8350  13033.0   59.00    496.00   86.97     64723
	// backfill    0.9334  5636.4    13.50    344.00   38.56     57905
	// easy        0.9179  9117.9    40.00    264.00   54.65     58882
	//
	// FCFS idles the machine behind blocked head jobs; aggressive
	// backfill fills it but delays the biggest jobs; EASY keeps the
	// utilization while honouring the head job's reservation.
}

package workload_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"dragonfly/internal/refmodel"
	"dragonfly/internal/rng"
	"dragonfly/internal/router"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

func topo2() *topology.Topology { return topology.New(topology.Balanced(2)) }

func TestParseJob(t *testing.T) {
	js, err := workload.ParseJob("name=a, nodes=72,alloc=SPREAD,first=3,pattern=PERM,load=0.25,phase=bursty,period=600,duty=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if js.Name != "a" || js.Nodes != 72 || js.Alloc != "spread" || js.FirstGroup != 3 ||
		js.Pattern != "PERM" || js.Load != 0.25 {
		t.Errorf("parsed %+v", js)
	}
	if js.Phase.Kind != "bursty" || js.Phase.Period != 600 || js.Phase.Duty != 0.5 {
		t.Errorf("parsed phase %+v", js.Phase)
	}

	js, err = workload.ParseJob("nodes=8,phase=switch,period=500,patterns=UN/SHIFT+1")
	if err != nil {
		t.Fatal(err)
	}
	if len(js.Phase.Patterns) != 2 || js.Phase.Patterns[1] != "SHIFT+1" {
		t.Errorf("switch patterns %v", js.Phase.Patterns)
	}

	for _, bad := range []string{"nodes", "nodes=x", "bogus=1", "load=abc",
		"load=NaN", "load=Inf", "load=-Inf", "load=1e308", "load=-0.1", "load=1.5",
		"duty=NaN", "duty=+Inf", "duty=2"} {
		if _, err := workload.ParseJob(bad); err == nil {
			t.Errorf("ParseJob(%q) accepted", bad)
		}
	}
}

// RoutersNeeded is the one ⌈nodes/p⌉ of the module (Place, the scheduler's
// queue and its flag-time checks all go through it): hold it to the
// definition — the least r with r·p ≥ nodes — over every job size a test
// machine can meet and beyond, and at the size where the textbook
// (nodes+p-1)/p wraps.
func TestRoutersNeededIsCeilDiv(t *testing.T) {
	for _, h := range []int{2, 3} {
		params := topology.Balanced(h)
		for p := 1; p <= 2*params.P; p++ {
			r := 1
			for n := 1; n <= 4*params.Nodes(); n++ {
				if r*p < n {
					r++
				}
				if got := workload.RoutersNeeded(n, p); got != r {
					t.Fatalf("RoutersNeeded(%d, %d) = %d, want %d", n, p, got, r)
				}
			}
			want := math.MaxInt / p
			if math.MaxInt%p != 0 {
				want++
			}
			if got := workload.RoutersNeeded(math.MaxInt, p); got != want {
				t.Fatalf("RoutersNeeded(MaxInt, %d) = %d, want %d", p, got, want)
			}
		}
	}
}

func TestCompileRejectsBadSpecs(t *testing.T) {
	topo := topo2()
	cases := map[string]workload.Spec{
		"no jobs":   {},
		"tiny job":  {Jobs: []workload.JobSpec{{Nodes: 1}}},
		"bad alloc": {Jobs: []workload.JobSpec{{Nodes: 4, Alloc: "hilbert"}}},
		"bad pat":   {Jobs: []workload.JobSpec{{Nodes: 4, Pattern: "NOPE"}}},
		"bad phase": {Jobs: []workload.JobSpec{{Nodes: 4, Phase: workload.PhaseSpec{Kind: "ramp"}}}},
		"bad duty":  {Jobs: []workload.JobSpec{{Nodes: 4, Phase: workload.PhaseSpec{Kind: "bursty", Period: 100, Duty: 1.5}}}},
		"no period": {Jobs: []workload.JobSpec{{Nodes: 4, Phase: workload.PhaseSpec{Kind: "bursty", Duty: 0.5}}}},
		"stray period": {Jobs: []workload.JobSpec{{Nodes: 4,
			Phase: workload.PhaseSpec{Period: 600, Duty: 0.5}}}}, // forgot phase=bursty
		"stray patterns": {Jobs: []workload.JobSpec{{Nodes: 4,
			Phase: workload.PhaseSpec{Kind: "bursty", Period: 100, Duty: 0.5, Patterns: []string{"UN"}}}}},
		"stray duty": {Jobs: []workload.JobSpec{{Nodes: 4,
			Phase: workload.PhaseSpec{Kind: "switch", Period: 100, Duty: 0.5, Patterns: []string{"UN", "PERM"}}}}},
		"shift self": {Jobs: []workload.JobSpec{{Nodes: 4, Pattern: "SHIFT+2"}}}, // 4 nodes / p=2 → 2 routers, 4 ranks; SHIFT+4? no — use explicit below
		"too big":    {Jobs: []workload.JobSpec{{Nodes: topo.NumNodes() + 2}}},
		"dup names":  {Jobs: []workload.JobSpec{{Name: "a", Nodes: 4}, {Name: "a", Nodes: 4}}},
		"overflow":   {Jobs: []workload.JobSpec{{Nodes: topo.NumNodes()}, {Nodes: 4}}},
	}
	// Fix the shift-self case to actually collapse: 4-node job, SHIFT+4.
	cases["shift self"] = workload.Spec{Jobs: []workload.JobSpec{{Nodes: 4, Pattern: "SHIFT+4"}}}
	for name, spec := range cases {
		if _, err := workload.Compile(topo, spec, 1); err == nil {
			t.Errorf("%s: compile accepted %+v", name, spec)
		}
	}
}

func TestAllocationPolicies(t *testing.T) {
	topo := topo2() // 9 groups, a=4, p=2: 36 routers, 72 nodes
	spec := workload.Spec{Jobs: []workload.JobSpec{
		{Name: "c", Nodes: 8, Alloc: workload.AllocConsecutive, FirstGroup: 2},
		{Name: "s", Nodes: 12, Alloc: workload.AllocSpread, FirstGroup: 0},
		{Name: "r", Nodes: 8, Alloc: workload.AllocRandom},
	}}
	wl, err := workload.Compile(topo, spec, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Consecutive: 4 routers straight from group 2's first router.
	c := wl.JobRouters(0)
	if len(c) != 4 {
		t.Fatalf("consecutive routers %v", c)
	}
	for i, r := range c {
		if r != 2*4+i {
			t.Errorf("consecutive router[%d] = %d, want %d", i, r, 8+i)
		}
	}

	// Spread: 6 routers in 6 distinct groups (one pass of the round-robin),
	// skipping group 2's taken routers is unnecessary — group 2 still has
	// free routers beyond the consecutive block? No: consecutive took only
	// group 2's routers 8..11, the whole group. Spread starting at group 0
	// must therefore use 6 distinct other groups.
	s := wl.JobRouters(1)
	if len(s) != 6 {
		t.Fatalf("spread routers %v", s)
	}
	seen := map[int]bool{}
	for _, r := range s {
		g := topo.RouterGroup(r)
		if seen[g] {
			t.Errorf("spread reused group %d: %v", g, s)
		}
		seen[g] = true
	}

	// All allocations disjoint; every node of a job maps back to it.
	owner := map[int]int{}
	for j := 0; j < wl.NumJobs(); j++ {
		for _, r := range wl.JobRouters(j) {
			if prev, dup := owner[r]; dup {
				t.Fatalf("router %d allocated to jobs %d and %d", r, prev, j)
			}
			owner[r] = j
		}
	}
	for n := 0; n < topo.NumNodes(); n++ {
		if j := int(wl.NodeJobs()[n]); j >= 0 {
			if o := owner[topo.NodeRouter(n)]; o != j {
				t.Errorf("node %d: job %d but router owned by %d", n, j, o)
			}
		}
	}

	// Compilation is deterministic in the seed (random policy included).
	wl2, err := workload.Compile(topo, spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < wl.NumJobs(); j++ {
		a, b := wl.JobRouters(j), wl2.JobRouters(j)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("job %d allocation differs across identical compiles", j)
			}
		}
	}

	// A consecutive allocation wraps past the last group: the Section III
	// application on groups 8 and 0 of 9 owns exactly their routers, and
	// its traffic stays inside them.
	app, err := workload.Compile(topo, workload.AppSpec(topo.Params(), 8, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := app.JobRouters(0), []int{32, 33, 34, 35, 0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("wrapped allocation routers %v, want %v", got, want)
	}
	r := rng.New(7)
	for n := 0; n < topo.NumNodes(); n++ {
		g := topo.NodeGroup(n)
		if member := g == 8 || g == 0; app.Member(n) != member {
			t.Fatalf("node %d of group %d: member %v", n, g, app.Member(n))
		}
		if !app.Member(n) {
			continue
		}
		for i := 0; i < 20; i++ {
			d := app.DestAt(n, 0, r)
			if dg := topo.NodeGroup(d); d == n || (dg != 8 && dg != 0) {
				t.Fatalf("node %d sent to node %d of group %d, outside the wrapped allocation", n, d, dg)
			}
		}
	}
}

func TestPhaseSchedules(t *testing.T) {
	topo := topo2()
	spec := workload.Spec{Jobs: []workload.JobSpec{
		{Name: "b", Nodes: 4, Phase: workload.PhaseSpec{Kind: "bursty", Period: 100, Duty: 0.3}},
		{Name: "sw", Nodes: 4, Pattern: "UN", Phase: workload.PhaseSpec{Kind: "switch", Period: 50, Patterns: []string{"SHIFT+1", "SHIFT+3"}}},
	}}
	wl, err := workload.Compile(topo, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(1)

	// Bursty: on for the first 30 cycles of each 100, silent after.
	bn := wl.JobRouters(0)[0] * topo.Params().P // first node of job b
	if wl.DestAt(bn, 10, rnd) < 0 {
		t.Error("bursty job silent during on phase")
	}
	if wl.DestAt(bn, 95, rnd) >= 0 {
		t.Error("bursty job active during off phase")
	}
	if wl.DestAt(bn, 110, rnd) < 0 {
		t.Error("bursty job silent at start of second period")
	}

	// Switch: SHIFT+1 then SHIFT+3 over the job's 4 ranks. Rank 0 is the
	// first node of the job's first router.
	swRouters := wl.JobRouters(1)
	rank := func(i int) int { return swRouters[i/2]*topo.Params().P + i%2 }
	if got, want := wl.DestAt(rank(0), 0, rnd), rank(1); got != want {
		t.Errorf("switch phase 0: rank 0 → node %d, want %d (SHIFT+1)", got, want)
	}
	if got, want := wl.DestAt(rank(0), 50, rnd), rank(3); got != want {
		t.Errorf("switch phase 1: rank 0 → node %d, want %d (SHIFT+3)", got, want)
	}
	if got, want := wl.DestAt(rank(0), 100, rnd), rank(1); got != want {
		t.Errorf("switch wraps: rank 0 → node %d, want %d (SHIFT+1 again)", got, want)
	}
}

func TestSoloKeepsPlacementAndIndices(t *testing.T) {
	topo := topo2()
	wl, err := workload.Compile(topo, workload.Spec{Jobs: []workload.JobSpec{
		{Name: "a", Nodes: 8}, {Name: "b", Nodes: 8},
	}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	solo := wl.Solo(1)
	if solo.NumJobs() != 2 || solo.JobName(1) != "b" {
		t.Fatal("solo workload lost job indices")
	}
	rnd := rng.New(9)
	for n := 0; n < topo.NumNodes(); n++ {
		switch int(wl.NodeJobs()[n]) {
		case 1:
			if !solo.Member(n) || int(solo.NodeJobs()[n]) != 1 {
				t.Fatalf("solo dropped node %d of the kept job", n)
			}
		default:
			if solo.Member(n) {
				t.Fatalf("solo kept node %d of job %d", n, int(wl.NodeJobs()[n]))
			}
			if solo.DestAt(n, 0, rnd) != -1 {
				t.Fatalf("silenced node %d still draws destinations", n)
			}
		}
	}
}

func TestSubsetKeepsSelectedJobsOnly(t *testing.T) {
	topo := topo2()
	wl, err := workload.Compile(topo, workload.Spec{Jobs: []workload.JobSpec{
		{Name: "a", Nodes: 8}, {Name: "b", Nodes: 8}, {Name: "c", Nodes: 8},
	}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	pair := wl.Subset(0, 2)
	if pair.NumJobs() != 3 {
		t.Fatal("subset workload lost job indices")
	}
	for n := 0; n < topo.NumNodes(); n++ {
		switch int(wl.NodeJobs()[n]) {
		case 0, 2:
			if int(pair.NodeJobs()[n]) != int(wl.NodeJobs()[n]) || !pair.Member(n) {
				t.Fatalf("subset dropped node %d of kept job %d", n, int(wl.NodeJobs()[n]))
			}
		default:
			if pair.Member(n) {
				t.Fatalf("subset kept node %d of job %d", n, int(wl.NodeJobs()[n]))
			}
		}
	}
	// Out-of-range selections are programmer errors, caught loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Subset index accepted")
		}
	}()
	wl.Subset(3)
}

func runCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1500
	return cfg
}

// twoJobSpec is a workload exercising every subsystem axis: two allocation
// policies, a per-job load override, and both phase kinds.
func twoJobSpec() workload.Spec {
	return workload.Spec{Jobs: []workload.JobSpec{
		{Name: "cons", Nodes: 24, Alloc: workload.AllocConsecutive, Pattern: "UN",
			Phase: workload.PhaseSpec{Kind: "bursty", Period: 200, Duty: 0.5}},
		{Name: "spread", Nodes: 24, Alloc: workload.AllocSpread, FirstGroup: 4, Load: 0.2,
			Phase: workload.PhaseSpec{Kind: "switch", Period: 150, Patterns: []string{"UN", "PERM"}}},
	}}
}

// The workload path must stay deterministic across engines and worker
// counts: the scheduler engines and the dense oracle, at Workers
// 1/2/4, all produce bit-identical per-router AND per-job statistics.
func TestWorkloadBitIdenticalAcrossEngines(t *testing.T) {
	cfg := runCfg()
	wl, err := workload.Compile(topology.New(cfg.Topology), twoJobSpec(), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int, ref bool) *sim.Result {
		c := cfg
		c.Workers = workers
		var net *sim.Network
		var err error
		if ref {
			if net, err = refmodel.NewNetwork(&c, wl); err == nil {
				err = refmodel.RunWithController(net, &c, nil)
			}
		} else if net, err = sim.NewNetwork(&c, wl); err == nil {
			err = sim.RunNetwork(net, &c)
		}
		if err != nil {
			t.Fatal(err)
		}
		return sim.NewResultFrom(net, &c, 0)
	}

	want := run(1, true)
	if want.Delivered() == 0 {
		t.Fatal("reference run delivered nothing")
	}
	for _, workers := range []int{1, 2, 4} {
		for _, ref := range []bool{false, true} {
			if got := run(workers, ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d ref=%v: result diverges", workers, ref)
			}
		}
	}
}

// Every generated packet belongs to a job, so the per-job counters must
// partition the global ones exactly, and the per-job load override must
// actually throttle the job.
func TestPerJobAttributionPartitionsTotals(t *testing.T) {
	cfg := runCfg()
	wl, err := workload.Compile(topology.New(cfg.Topology), twoJobSpec(), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumJobs() != 2 {
		t.Fatalf("NumJobs = %d", res.NumJobs())
	}
	var gen, inj, del, phits int64
	for j := 0; j < res.NumJobs(); j++ {
		jt := res.JobTotal(j)
		gen += jt.Generated
		inj += jt.Injected
		del += jt.Delivered
		phits += jt.DeliveredPhits
		if jt.Delivered == 0 {
			t.Errorf("job %d delivered nothing", j)
		}
		if res.JobAvgLatency(j) <= 0 || res.JobThroughput(j) <= 0 {
			t.Errorf("job %d has empty derived metrics", j)
		}
		if f := res.JobFairness(j); f.Jain <= 0 {
			t.Errorf("job %d fairness %+v", j, f)
		}
	}
	if gen != res.Generated() {
		t.Errorf("job Generated sum %d != global %d", gen, res.Generated())
	}
	var injTotal int64
	for _, v := range res.Injections() {
		injTotal += v
	}
	if inj != injTotal {
		t.Errorf("job Injected sum %d != global %d", inj, injTotal)
	}
	if del != res.Delivered() {
		t.Errorf("job Delivered sum %d != global %d", del, res.Delivered())
	}

	// Job "cons" runs at load 0.3 with duty 0.5; job "spread" at load 0.2
	// steady. Per-node generation rates: ~0.15/packetSize vs ~0.2/packetSize
	// worth of packets — spread must generate measurably more per node.
	g0 := float64(res.JobTotal(0).Generated) / float64(res.JobNodes[0])
	g1 := float64(res.JobTotal(1).Generated) / float64(res.JobNodes[1])
	if g1 <= g0 {
		t.Errorf("per-job load/duty ignored: cons %.1f pkts/node vs spread %.1f", g0, g1)
	}
}

// Off-phase arrivals are not generation attempts: a saturated bursty job
// must accrue Generated+Backlogged only during its on phases, even while
// its overfull injection queues drain through the off phases.
func TestBurstyOffPhaseNotCountedAsBacklog(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Mechanism = "MIN"
	cfg.Load = float64(router.DefaultConfig().PacketSize) // q = 1: an arrival every cycle
	cfg.Router.InjectionQueuePackets = 4                  // saturate the source queues fast
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 2000
	duty := 0.5
	spec := workload.Spec{Jobs: []workload.JobSpec{{
		Name: "b", Nodes: 8,
		Phase: workload.PhaseSpec{Kind: "bursty", Period: 200, Duty: duty},
	}}}
	wl, err := workload.Compile(topology.New(cfg.Topology), spec, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	jt := res.JobTotal(0)
	attempts := jt.Generated + jt.Backlogged
	onArrivals := int64(duty * float64(cfg.MeasureCycles) * float64(res.JobNodes[0]))
	if attempts > onArrivals || attempts < onArrivals*9/10 {
		t.Errorf("generation attempts %d (gen %d + backlog %d), want ≈ on-phase arrivals %d",
			attempts, jt.Generated, jt.Backlogged, onArrivals)
	}
	if jt.Backlogged == 0 {
		t.Error("queues never saturated — the test exercises nothing")
	}
}

// The degenerate one-job consecutive case must reproduce the Section III
// observation: uniform traffic inside an h+1-group allocation starves the
// bottleneck router of each member group (ADVc-like injection skew), while
// a spread placement of the same job does not.
func TestConsecutiveAllocationCreatesADVcSkew(t *testing.T) {
	cfg := runCfg()
	// The h=2 network is too small for the bottleneck to bite; use the
	// example's h=3 setup (19 groups), where the h+1-group consecutive
	// allocation starves router a-1 of each member group.
	cfg.Topology = topology.Balanced(3)
	cfg.Load = 0.4
	cfg.Router.Arbitration = router.TransitOverInjection
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 4000
	h := cfg.Topology.H
	nodes := (h + 1) * cfg.Topology.A * cfg.Topology.P

	skew := func(alloc string) float64 {
		spec := workload.Spec{Jobs: []workload.JobSpec{{Name: "app", Nodes: nodes, Alloc: alloc}}}
		wl, err := workload.Compile(topology.New(cfg.Topology), spec, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunWorkload(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		f := res.JobFairness(0)
		if f.MinInj <= 0 {
			return 1e9 // fully starved router: maximal skew
		}
		return f.MaxMin
	}

	cons, spread := skew(workload.AllocConsecutive), skew(workload.AllocSpread)
	if cons < 1.5 {
		t.Errorf("consecutive allocation shows no bottleneck skew: max/min %.2f", cons)
	}
	if spread > cons/1.2 {
		t.Errorf("spread placement (%.2f) not clearly fairer than consecutive (%.2f)", spread, cons)
	}
}

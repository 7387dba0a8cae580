package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
)

// Randomized cross-implementation state equivalence. The scheduler engines
// run the router core (flat arrays, in-ring link transport); the oracle
// (internal/refmodel) runs the seed's per-router structs and ring links on
// the dense engines. The per-router *results* being identical at the end
// of a run is a weak check — two implementations could diverge mid-run and
// reconverge. This test compares the full microarchitectural state
// (credits, occupancy, queue contents packet by packet, allocator and
// arbitration pointers — see Core.StateVector), the packets in flight and
// the accumulators (fabricDiff) after every prefix of a run, under mid-run
// job churn applied through the Reconfig point, for Workers 1, 2 and
// NumCPU. A checkpoint at cycle k runs fresh networks for k cycles on each
// side and compares.
//
// The CI race job runs this with -race, which turns the Workers>1
// checkpoints into a data-race probe of the shard partitioning.

// churnEvent is one scripted membership change.
type churnEvent struct {
	cycle int64
	node  int
	on    bool
	load  float64 // 0 inherits the run's configured load
}

// churnController replays a fixed event script through the Reconfig
// handle. It is a deterministic function of the script alone, so the same
// script yields bit-identical runs on every engine and worker count.
type churnController struct {
	events []churnEvent // sorted by cycle
}

func (c *churnController) NextEvent(now int64) int64 {
	for _, e := range c.events {
		if e.cycle > now {
			return e.cycle
		}
	}
	return -1
}

func (c *churnController) Apply(rc *Reconfig, now int64) {
	for _, e := range c.events {
		if e.cycle != now {
			continue
		}
		if e.on {
			rc.SetNodeActive(e.node, e.load)
		} else {
			rc.SetNodeSilent(e.node)
		}
	}
}

// silenceAll scripts every one of the first `nodes` nodes falling silent at
// the given cycle.
func silenceAll(cycle int64, nodes int) []churnEvent {
	script := make([]churnEvent, nodes)
	for n := range script {
		script[n] = churnEvent{cycle: cycle, node: n}
	}
	return script
}

// statePropTrial is one randomized scenario: a mechanism/pattern/load draw
// plus a churn script.
type statePropTrial struct {
	mech   string
	pat    string
	load   float64
	warmup int64
	total  int64
	script []churnEvent
}

func randomTrial(rnd *rand.Rand, nodes int) statePropTrial {
	mechs := []string{"MIN", "Src-CRG", "In-Trns-MM"}
	pats := []string{"UN", "ADVc"}
	loads := []float64{0.15, 0.45, 0.8}
	tr := statePropTrial{
		mech:   mechs[rnd.Intn(len(mechs))],
		pat:    pats[rnd.Intn(len(pats))],
		load:   loads[rnd.Intn(len(loads))],
		warmup: 4,
		total:  int64(40 + rnd.Intn(41)), // 40..80 cycles
	}
	// A handful of membership flips spread over the run: silence some
	// nodes, re-activate others (sometimes at a different load), so the
	// reconfigured generation calendar, forced wakes and recycled
	// allocations are all live while the engines are being compared.
	for i, n := 0, 3+rnd.Intn(5); i < n; i++ {
		e := churnEvent{
			cycle: 1 + int64(rnd.Intn(int(tr.total)-1)),
			node:  rnd.Intn(nodes),
			on:    rnd.Intn(2) == 0,
		}
		if e.on && rnd.Intn(2) == 0 {
			e.load = 0.3
		}
		tr.script = append(tr.script, e)
	}
	return tr
}

func (tr statePropTrial) config(measure int64) Config {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(2)
	cfg.Mechanism = tr.mech
	cfg.Pattern = tr.pat
	cfg.Load = tr.load
	cfg.WarmupCycles = tr.warmup
	cfg.MeasureCycles = measure
	cfg.Seed = 99
	return cfg
}

// runPrefix runs a fresh network for warmup+measure cycles on the given
// implementation.
func (tr statePropTrial) runPrefix(t *testing.T, measure int64, workers int, im impl) *Network {
	t.Helper()
	cfg := tr.config(measure)
	cfg.Workers = workers
	net, err := im.build(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.drive(net, &cfg, &churnController{events: tr.script}); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestStateEquivalenceUnderChurn(t *testing.T) {
	trials, stride := 4, 1
	if testing.Short() {
		trials, stride = 2, 7
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	rnd := rand.New(rand.NewSource(20260807))
	nodes := topology.New(topology.Balanced(2)).NumNodes()

	for trial := 0; trial < trials; trial++ {
		tr := randomTrial(rnd, nodes)
		t.Logf("trial %d: %s/%s load %.2f, %d cycles, %d churn events",
			trial, tr.mech, tr.pat, tr.load, tr.total, len(tr.script))
		for k := tr.warmup + 1; k <= tr.total; k += int64(stride) {
			measure := k - tr.warmup
			ref := tr.runPrefix(t, measure, 1, oracle)
			for _, w := range workerCounts {
				if d := fabricDiff(tr.runPrefix(t, measure, w, core), ref); d != "" {
					t.Fatalf("trial %d cycle %d workers %d: %s", trial, k, w, d)
				}
			}
		}
	}
}

// finishingChurn is a churnController that also ends the run at cycle at.
// A Finisher may first report true only at a cycle it named through
// NextEvent — the driver asks Finished right after Apply and nowhere else —
// so the finish cycle is an event of its own (with nothing to apply); a
// controller that finished on a bare cycle number would simply never be
// asked at that cycle.
type finishingChurn struct {
	churnController
	at int64
}

func (f *finishingChurn) NextEvent(now int64) int64 {
	next := f.churnController.NextEvent(now)
	if f.at > now && (next < 0 || f.at < next) {
		next = f.at
	}
	return next
}

func (f *finishingChurn) Finished(now int64) bool { return now >= f.at }

// oneShortLink is the Table I latency model with a single 1-cycle cable,
// between groups 0 and 1. The engine's lookahead is the shortest global
// link, so one such cable collapses every window to a single cycle.
type oneShortLink struct{ topology.UniformLatency }

func (oneShortLink) Name() string { return "one-short-link" }

func (m oneShortLink) GlobalLatency(t *topology.Topology, src, dst int) int {
	if t.RouterGroup(src)+t.RouterGroup(dst) == 1 {
		return 1
	}
	return m.Global
}

// The engine advances in windows of up to one global-link latency, cut
// wherever the driver touches the whole network. This test puts something
// on every kind of edge — controller events in the middle of a window, on
// its first and on its last cycle; a probe cadence coprime with the
// lookahead; the warm-up and batch boundaries, which are no cuts (the
// fabric derives the phase from the cycle number) and so fall inside
// windows, in one case all nine inside a single one; a Finisher finishing
// mid-lookahead and on a window's first cycle; a wiring whose lookahead is
// one cycle — and requires the state vectors, the packets in flight, the
// statistics (BatchPhits included) and the probe stream of the core, on one
// and two workers, to equal the dense oracle's, which knows nothing of
// windows. A difference is bisected to the first cycle that shows it.
// releaseSpy is the production engine with a Settle that does the same in
// two steps — up to the cycle before, then the cycle itself — to count the
// routers whose output occupancy falls in the second: a buffer release due on
// exactly the window's last cycle, at a router that did not step in it (its
// own step would have applied the release, and Settle would find nothing).
type releaseSpy struct {
	*engine
	found int
}

func (s *releaseSpy) Settle(upTo int64) {
	s.engine.Settle(upTo - 1)
	before := make([]int64, len(s.wakeAt))
	for r := range before {
		_, before[r] = s.core.ProbeQueues(r)
	}
	s.engine.Settle(upTo)
	for r := range before {
		if _, after := s.core.ProbeQueues(r); after < before[r] {
			s.found++
		}
	}
}

func TestWindowEdgesMatchOracle(t *testing.T) {
	const warmup, total = 150, 600
	nodes := topology.New(topology.Balanced(2)).NumNodes()
	// Toggle a block of nodes at each of the given cycles.
	flipsAt := func(cycles ...int64) []churnEvent {
		var script []churnEvent
		for i, c := range cycles {
			for k := 0; k < 6; k++ {
				script = append(script, churnEvent{cycle: c, node: (i*11 + k*5) % nodes, on: (i+k)%2 == 0, load: 0.3})
			}
		}
		return script
	}
	cases := []struct {
		name       string
		mech, pat  string
		load       float64
		latency    topology.LatencyModel
		probeEvery int64
		script     []churnEvent
		finishAt   int64 // > 0: the controller is a Finisher
		// warmup and total override the constants above when total > 0.
		warmup, total int64
		allBatches    bool // every batch-means span must see a delivery
		// sleepers: a buffer release of a router that sleeps through a window's
		// last cycle must fall due on that very cycle (releaseSpy counts them).
		sleepers bool
		// windows bounds what the core may report: [lo, hi].
		windowsLo, windowsHi int64
	}{
		// The uncut shape: six 100-cycle windows; the warm-up boundary (150)
		// and the eight batch boundaries fall inside them.
		{name: "plain", mech: "In-Trns-MM", pat: "ADVc", load: 0.45, windowsLo: 6, windowsHi: 6},
		// A sweep point of the screening pipeline: 15 + 30 cycles, shorter than
		// the lookahead, so warm-up, the flip and all eight batches are one window.
		{name: "whole run in one window", mech: "MIN", pat: "UN", load: 0.9,
			warmup: 15, total: 45, windowsLo: 1, windowsHi: 1},
		// Exactly one lookahead long, with short local cables so that every one
		// of the eight batches sees deliveries (allBatches checks it).
		{name: "one full window, eight busy batches", mech: "MIN", pat: "UN", load: 0.9,
			latency: topology.UniformLatency{Local: 2, Global: 100},
			warmup:  60, total: 100, allBatches: true, windowsLo: 1, windowsHi: 1},
		// Events mid-window, one short of a boundary, on it, one past it, on
		// the warm-up flip, and on the last cycle of the run.
		{name: "events on window edges", mech: "Src-CRG", pat: "UN", load: 0.3,
			script: flipsAt(37, 99, 100, 101, warmup, 299, 300, total-1), windowsLo: 10, windowsHi: 30},
		// 7 and 100 are coprime: the probe cut falls on every offset of a window.
		{name: "probe cadence coprime with the lookahead", mech: "Src-CRG", pat: "ADVc", load: 0.45,
			probeEvery: 7, script: flipsAt(50, 200), windowsLo: total / 7, windowsHi: total/7 + 30},
		// Every source falls silent and the network drains: groups go idle one
		// by one, each right after the step that cleared its last PiggyBack
		// bits, and the probes must still find those bits one cycle behind.
		{name: "drain under probes", mech: "Src-CRG", pat: "ADVc", load: 0.9,
			probeEvery: 3, script: silenceAll(300, nodes), windowsLo: total / 3, windowsHi: total/3 + 30},
		{name: "probe every cycle", mech: "Src-CRG", pat: "ADVc", load: 0.3,
			probeEvery: 1, windowsLo: total, windowsHi: total},
		// A mostly sleeping PiggyBack network: nobody steps for a release any
		// more, so at a window's end the probe reads queue occupancies that the
		// driver's Settle moved on the window's last cycle, and PiggyBack bits
		// that must not know yet. Every cycle is a window's last at cadence 1.
		{name: "sleepers' releases under probes, every cycle", mech: "Src-CRG", pat: "UN", load: 0.05,
			probeEvery: 1, sleepers: true, windowsLo: total, windowsHi: total},
		{name: "sleepers' releases under probes, every seventh cycle", mech: "Src-CRG", pat: "UN", load: 0.05,
			probeEvery: 7, sleepers: true, windowsLo: total / 7, windowsHi: total/7 + 7},
		// Windows [0,10) [10,110) [110,210) [210,211) [211,311), then the finish
		// event cuts [311,411) at 333 and the run ends with [333,334).
		{name: "finisher mid-lookahead", mech: "In-Trns-MM", pat: "UN", load: 0.45,
			script: flipsAt(10, 211), finishAt: 333, windowsLo: 7, windowsHi: 7},
		// The same, finishing exactly where a full window would have started.
		{name: "finisher on a window's first cycle", mech: "In-Trns-MM", pat: "UN", load: 0.45,
			script: flipsAt(10, 211), finishAt: 311, windowsLo: 6, windowsHi: 6},
		{name: "one 1-cycle global link", mech: "Src-CRG", pat: "ADVc", load: 0.45,
			latency:    oneShortLink{topology.UniformLatency{Local: 10, Global: 100}},
			probeEvery: 64, script: flipsAt(37, 100), windowsLo: total, windowsHi: total},
	}
	for _, tc := range cases {
		warmup, total := int64(warmup), int64(total)
		if tc.total > 0 {
			warmup, total = tc.warmup, tc.total
		}
		var spy *releaseSpy
		run := func(im impl, workers int, cycles int64) (*Network, outcome, string, int64) {
			cfg := DefaultConfig()
			cfg.Topology = topology.Balanced(2)
			cfg.Mechanism, cfg.Pattern, cfg.Load = tc.mech, tc.pat, tc.load
			cfg.WarmupCycles, cfg.MeasureCycles = warmup, cycles-warmup
			cfg.Seed, cfg.Workers = 31, workers
			cfg.LatencyModel = tc.latency
			var stream bytes.Buffer
			if tc.probeEvery > 0 {
				cfg.Probes = telemetry.NewProbes(telemetry.ProbeConfig{Every: tc.probeEvery, Out: &stream})
			}
			var ctrl Controller = &churnController{events: tc.script}
			if tc.finishAt > 0 {
				ctrl = &finishingChurn{churnController{events: tc.script}, tc.finishAt}
			}
			net, err := im.build(&cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if spy != nil && im.name == core.name {
				spy.engine = newEngine(net, workers)
				err = Drive(net, warmup, cycles, ctrl, spy)
			} else {
				err = im.drive(net, &cfg, ctrl)
			}
			if err != nil {
				t.Fatal(err)
			}
			return net, outcomeOf(net, &cfg), stream.String(), net.EngineWindows()
		}
		want, wantRes, wantStream, _ := run(oracle, 1, total)
		if wantRes.Delivered() == 0 {
			t.Fatalf("%s: nothing delivered", tc.name)
		}
		for b, phits := range wantRes.Total.BatchPhits {
			if tc.allBatches && phits == 0 {
				t.Fatalf("%s: nothing delivered in batch %d", tc.name, b)
			}
		}
		// Both sides share the driver, so the stop cycle is checked on its own:
		// the run ends after the cycle the Finisher finished at.
		if tc.finishAt > 0 && wantRes.MeasuredCycles != tc.finishAt+1-warmup {
			t.Fatalf("%s: measured %d cycles, want %d", tc.name, wantRes.MeasuredCycles, tc.finishAt+1-warmup)
		}
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			if tc.sleepers {
				spy = new(releaseSpy)
			}
			net, res, stream, windows := run(core, workers, total)
			if spy != nil && spy.found == 0 {
				t.Fatalf("%s workers=%d: no sleeping router had a release fall due on a window's last cycle", tc.name, workers)
			}
			if d := fabricDiff(net, want); d != "" {
				_, at := firstDivergence(warmup, total, d, func(k int64) (*Network, *Network) {
					got, _, _, _ := run(core, workers, k)
					ref, _, _, _ := run(oracle, 1, k)
					return got, ref
				})
				t.Fatalf("%s workers=%d: %s", tc.name, workers, at)
			}
			requireIdentical(t, tc.name, wantRes, res)
			if res.MeasuredCycles != wantRes.MeasuredCycles {
				t.Fatalf("%s: measured %d cycles, oracle %d", tc.name, res.MeasuredCycles, wantRes.MeasuredCycles)
			}
			if stream != wantStream {
				t.Fatalf("%s workers=%d: probe stream differs from the oracle's", tc.name, workers)
			}
			if windows < tc.windowsLo || windows > tc.windowsHi {
				t.Errorf("%s workers=%d: %d windows, want %d..%d", tc.name, workers, windows, tc.windowsLo, tc.windowsHi)
			}
		}
	}
}

// A packet queues on itself, so nothing reserves queue depth up front and
// only the credit protocol and the Table I source-queue bound limit it. This
// drives source queues to that 256-packet bound — MIN routing under ADVc at
// full offered load, far past saturation, so generation is refused
// (Backlogged) — and requires the core's state vectors, which list every
// queued packet in order, its packets in flight and its statistics to equal
// the oracle's, on one and two workers. A difference is bisected to the
// first measured cycle that shows it.
func TestDeepBacklogMatchesOracle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism, cfg.Pattern, cfg.Load = "MIN", "ADVc", 1.0
	cfg.WarmupCycles, cfg.MeasureCycles = 2000, 1000
	total := cfg.WarmupCycles + cfg.MeasureCycles
	run := func(im impl, workers int, cycles int64) (*Network, outcome) {
		cfg := cfg
		cfg.Workers, cfg.MeasureCycles = workers, cycles-cfg.WarmupCycles
		net, err := im.build(&cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := im.drive(net, &cfg, nil); err != nil {
			t.Fatal(err)
		}
		return net, outcomeOf(net, &cfg)
	}
	ref, refRes := run(oracle, 1, total)
	if refRes.Backlogged() == 0 {
		t.Fatal("no generation attempt was refused: the source queues never filled")
	}
	full, per := 0, ref.Topo.Params().P
	for r := 0; r < ref.Topo.NumRouters(); r++ {
		for i := 0; i < per; i++ {
			if ref.fab.InjectionBacklog(r, i) == cfg.Router.InjectionQueuePackets {
				full++
			}
		}
	}
	if full == 0 {
		t.Fatalf("no source queue holds its %d-packet bound at the end", cfg.Router.InjectionQueuePackets)
	}
	for _, workers := range []int{1, 2} {
		net, res := run(core, workers, total)
		if d := fabricDiff(net, ref); d != "" {
			_, at := firstDivergence(cfg.WarmupCycles, total, d, func(k int64) (*Network, *Network) {
				got, _ := run(core, workers, k)
				want, _ := run(oracle, 1, k)
				return got, want
			})
			t.Fatalf("workers=%d: %s", workers, at)
		}
		requireIdentical(t, fmt.Sprintf("workers=%d", workers), refRes, res)
	}
	t.Logf("%d of %d source queues full, %d attempts refused", full, ref.Topo.NumNodes(), refRes.Backlogged())
}

// A global output's credit ring is drained with the lookahead as slack, not
// the one cycle a local ring gets: a credit is pushed to its receiver the
// moment it is sent, and the receiver's group — stepped later in the window,
// or on another worker — may be up to a window behind the sender. Drained
// with one cycle of slack, a full global ring would apply a credit its
// router has not reached yet, and the router, or its group's PiggyBack
// refresh, would act on it early. Src-CRG under ADV+1 at 0.7 on h=3 keeps
// the bottleneck groups busy reading their own state while the downstream
// input buffers drain their backlog at crossbar speed, two credits per
// packet time; the rings fill a few hundred cycles in, at different places
// under different seeds. For three seeds (one under -short) the core's state
// vectors, packets in flight and statistics must equal the oracle's on one
// and two workers. A difference is bisected to the first measured cycle that
// shows it.
func TestGlobalCreditSlackMatchesOracle(t *testing.T) {
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg := h3Cfg("Src-CRG", "ADV+1", 0.7)
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.Seed = 100, 600, seed
		total := cfg.WarmupCycles + cfg.MeasureCycles
		run := func(im impl, workers int, cycles int64) *Network {
			cfg := cfg
			cfg.Workers, cfg.MeasureCycles = workers, cycles-cfg.WarmupCycles
			net, err := im.build(&cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := im.drive(net, &cfg, nil); err != nil {
				t.Fatal(err)
			}
			return net
		}
		ref := run(oracle, 1, total)
		for _, workers := range []int{1, 2} {
			if d := fabricDiff(run(core, workers, total), ref); d != "" {
				_, at := firstDivergence(cfg.WarmupCycles, total, d, func(k int64) (*Network, *Network) {
					return run(core, workers, k), run(oracle, 1, k)
				})
				t.Errorf("seed %d workers=%d: %s", seed, workers, at)
			}
		}
	}
}

package sim

import (
	"sort"
	"strings"
	"testing"

	"dragonfly/internal/packet"
	"dragonfly/internal/router"
	"dragonfly/internal/topology"
)

// equivCfg is the cross-engine equivalence configuration: long enough for
// steady state and a couple of batch boundaries, small enough to run the
// full engine × mechanism × pattern × load matrix in seconds.
func equivCfg(mech, pattern string, load float64) Config {
	cfg := DefaultConfig()
	cfg.Mechanism = mech
	cfg.Pattern = pattern
	cfg.Load = load
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1500
	return cfg
}

// runOn builds a fresh network with im and drives it with im's engine.
func runOn(t *testing.T, im impl, cfg Config) *Result {
	t.Helper()
	net, err := im.build(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.drive(net, &cfg, nil); err != nil {
		t.Fatal(err)
	}
	return newResult(net, &cfg, 0)
}

// runRef runs the dense oracle (ring links, the seed configuration).
func runRef(t *testing.T, cfg Config) *Result { return runOn(t, oracle, cfg) }

// runSched runs the active-router scheduler engine, bypassing the NumCPU
// clamp so the parallel path is exercised even on small CI machines. It
// returns the result and the number of router-steps executed.
func runSched(t *testing.T, cfg Config, workers int) (*Result, int64) {
	t.Helper()
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(net, cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, workers, nil); err != nil {
		t.Fatal(err)
	}
	return newResult(net, &cfg, 0), net.engineSteps
}

// requireIdentical fails unless every per-router accumulator — and hence
// every derived metric (throughput, latency, fairness CoV, batches,
// breakdowns) — is bit-identical.
func requireIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	for i := range want.PerRouter {
		if want.PerRouter[i] != got.PerRouter[i] {
			t.Fatalf("%s: router %d stats diverge from the reference engine:\nref    %+v\nsched  %+v",
				label, i, want.PerRouter[i], got.PerRouter[i])
		}
	}
	if want.Throughput() != got.Throughput() ||
		want.AvgLatency() != got.AvgLatency() ||
		want.Fairness().CoV != got.Fairness().CoV {
		t.Fatalf("%s: derived metrics diverge", label)
	}
}

// The tentpole guarantee: the active-router scheduler produces bit-identical
// results to the dense seed engine for every worker count, across mechanism
// classes (Src- exercises the PB barrier phase), traffic patterns and loads
// from near-idle to saturation.
func TestSchedulerMatchesReferenceEngine(t *testing.T) {
	mechs := []string{"MIN", "Src-CRG", "In-Trns-MM"}
	patterns := []string{"UN", "ADVc"}
	loads := []float64{0.05, 0.35, 0.8}
	workerCounts := []int{1, 2, 4}
	if testing.Short() {
		mechs = []string{"MIN", "Src-CRG"}
		loads = []float64{0.05, 0.35}
	}
	for _, mech := range mechs {
		for _, pat := range patterns {
			for _, load := range loads {
				cfg := equivCfg(mech, pat, load)
				ref := runRef(t, cfg)
				for _, workers := range workerCounts {
					res, _ := runSched(t, cfg, workers)
					requireIdentical(t, cfg.Mechanism+"/"+cfg.Pattern, ref, res)
				}
			}
		}
	}
}

// At low load the scheduler must actually skip work: well under half of the
// dense engine's router-steps (the perf win the BENCH_engine.json harness
// tracks), without giving up bit-identity (checked above).
func TestSchedulerSkipsQuiescentRouters(t *testing.T) {
	cfg := equivCfg("In-Trns-MM", "UN", 0.1)
	dense := int64(cfg.Topology.Routers()) * (cfg.WarmupCycles + cfg.MeasureCycles)
	for _, workers := range []int{1, 2} {
		_, steps := runSched(t, cfg, workers)
		if steps <= 0 || steps >= dense/2 {
			t.Errorf("workers=%d: executed %d of %d dense router-steps; expected < 50%% at load 0.1",
				workers, steps, dense)
		}
	}
	// Zero load: after the initial settling cycle nothing ever wakes.
	zero := cfg
	zero.Load = 0
	_, steps := runSched(t, zero, 1)
	if n := int64(zero.Topology.Routers()); steps != n {
		t.Errorf("zero load executed %d router-steps, want exactly one settling step per router (%d)", steps, n)
	}
}

// The deadlock watchdog must keep firing when the scheduler has put every
// router to sleep. A packet is marooned on an unplugged link, after which
// the whole network is quiescent forever — exactly the state where a naive
// active-set engine would idle past the stall.
func TestWatchdogFiresWithSleepingRouters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "MIN"
	cfg.Load = 0
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 4 * watchdogInterval
	for _, workers := range []int{1, 2} {
		net, err := NewNetwork(&cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Detach router 0's local port 0 from its receiver: packets sent
		// there serialize onto a dead cable and never arrive anywhere.
		net.core.Unplug(0, 0)

		// Hand-inject one packet whose minimal route uses that port.
		src := net.Topo.NodeID(0, 0)
		dst := net.Topo.NodeID(net.Topo.LocalNeighbor(0, 0), 0)
		pkt := &packet.Packet{}
		pkt.Reset()
		pkt.Src, pkt.Dst = src, dst
		pkt.Size = cfg.Router.PacketSize
		min := net.Topo.MinimalPathLength(src, dst)
		pkt.MinLocal, pkt.MinGlobal = min.Local, min.Global
		net.mech.OnGenerate(&net.env, pkt, &net.nodes[src].rnd)
		net.core.EnqueueInjection(0, 0, pkt)

		err = run(net, cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles, workers, nil)
		if err == nil {
			t.Fatalf("workers=%d: marooned packet went undetected", workers)
		}
		if !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("workers=%d: unexpected error: %v", workers, err)
		}
	}
}

// jobTrace scripts a small job trace for churnController: every job
// {arrival, departure, first node, nodes} switches a block of consecutive
// nodes on at its arrival and off at its departure.
func jobTrace(jobs [][4]int64) *churnController {
	c := &churnController{}
	for _, j := range jobs {
		for k := 0; k < int(j[3]); k++ {
			c.events = append(c.events,
				churnEvent{cycle: j[0], node: int(j[2]) + k, on: true, load: 0.3},
				churnEvent{cycle: j[1], node: int(j[2]) + k})
		}
	}
	sort.SliceStable(c.events, func(a, b int) bool { return c.events[a].cycle < c.events[b].cycle })
	return c
}

// Which router-steps execute is a contract, not an implementation detail:
// the step count is the work counter every perf record of the repository is
// normalised by (router.steps, ns/step), so an engine change that moves it
// — filtering stale calendar entries, waking differently — must show up
// here, not as an unexplained shift in a benchmark. The numbers were
// recorded on the cycle-major engine this one replaced, at h=3: saturation,
// a mostly sleeping PiggyBack network, a controller switching jobs on and
// off mid-run (its wakes and its cancelled generation events included), and
// a heterogeneous latency model. They hold at Workers=1; the barrier moves
// when cross-worker events are announced, so for Workers=2 only the results
// are compared.
func TestEngineStepsPinned(t *testing.T) {
	h3 := func(mech, pat string, load float64) Config {
		cfg := equivCfg(mech, pat, load)
		cfg.Topology = topology.Balanced(3)
		cfg.Seed = 7
		return cfg
	}
	sat := h3("In-Trns-MM", "ADVc", 0.4)
	sat.Router.Arbitration = router.TransitOverInjection
	skew := h3("In-Trns-MM", "UN", 0.2)
	applyLatency(t, &skew, 10, 100, "groupskew")
	cases := []struct {
		name  string
		cfg   Config
		trace [][4]int64
		steps int64
	}{
		{"In-Trns-MM/ADVc@0.4/transit-priority", sat, nil, 210941},
		{"Src-CRG/UN@0.05", h3("Src-CRG", "UN", 0.05), nil, 58707},
		{"job trace", h3("In-Trns-MM", "UN", 0), [][4]int64{
			{0, 700, 0, 48}, {1, 350, 48, 24}, {99, 1200, 100, 60}, {100, 1101, 200, 36},
			{350, 1999, 48, 40}, {777, 1300, 240, 72}, {1200, 1700, 160, 40}, {1301, 1302, 0, 12},
		}, 102960},
		{"groupskew", skew, nil, 157104},
	}
	for _, tc := range cases {
		var ref *Result
		for _, workers := range []int{1, 2} {
			net, err := NewNetwork(&tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var ctrl Controller
			if tc.trace != nil {
				ctrl = jobTrace(tc.trace)
			}
			if err := run(net, tc.cfg.WarmupCycles, tc.cfg.WarmupCycles+tc.cfg.MeasureCycles, workers, ctrl); err != nil {
				t.Fatal(err)
			}
			res := newResult(net, &tc.cfg, 0)
			if workers == 1 {
				ref = res
				if res.Delivered() == 0 {
					t.Fatalf("%s: nothing delivered", tc.name)
				}
				if got := net.EngineSteps(); got != tc.steps {
					t.Errorf("%s: %d router-steps, pinned %d", tc.name, got, tc.steps)
				}
				continue
			}
			requireIdentical(t, tc.name, ref, res)
		}
	}
}

package sim

import (
	"strings"
	"testing"

	"dragonfly/internal/packet"
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

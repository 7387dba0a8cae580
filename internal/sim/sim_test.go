package sim

import (
	"math"
	"testing"

	"dragonfly/internal/router"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
)

// small returns a fast test configuration.
func small() Config {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 2000
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := small()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Topology.P = 0 },
		func(c *Config) { c.Load = -1 },
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.WarmupCycles = -1 },
		func(c *Config) { c.Workers = -2 },
		func(c *Config) { c.Mechanism = "bogus" },
		func(c *Config) { c.Router.PacketSize = 0 },
		// The run ends at cycle warmup+measure, which must be an int64.
		func(c *Config) { c.WarmupCycles, c.MeasureCycles = math.MaxInt64, 1 },
		func(c *Config) { c.WarmupCycles, c.MeasureCycles = 1, math.MaxInt64 },
		// Values the core or a packet would truncate.
		func(c *Config) { c.Router.GlobalLatency = 1 << 31 },
		func(c *Config) { c.Router.LocalLatency = 1 << 31 },
		func(c *Config) { c.Router.InjectionQueuePackets = 1 << 31 },
		func(c *Config) { c.Router.GlobalVCPhits = 1 << 31 },
		func(c *Config) { c.Topology.P = 1 << 30 },
	}
	for i, mut := range bad {
		c := small()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunRejectsBadPattern(t *testing.T) {
	cfg := small()
	cfg.Pattern = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus pattern accepted")
	}
}

func TestPaperConfigMatchesTableI(t *testing.T) {
	cfg := PaperConfig()
	if cfg.Topology != topology.Balanced(6) {
		t.Errorf("topology %+v, want balanced h=6", cfg.Topology)
	}
	if cfg.Topology.Nodes() != 5256 || cfg.Topology.Routers() != 876 {
		t.Error("paper network size wrong")
	}
	if cfg.MeasureCycles != 15000 {
		t.Errorf("measured cycles %d, want 15000", cfg.MeasureCycles)
	}
	r := cfg.Router
	if r.PacketSize != 8 || r.PipelineCycles != 5 || r.Speedup != 2 ||
		r.OutputBufferPhits != 32 || r.LocalVCPhits != 32 || r.GlobalVCPhits != 256 ||
		r.LocalLatency != 10 || r.GlobalLatency != 100 {
		t.Errorf("router parameters deviate from Table I: %+v", r)
	}
	if cfg.Routing.CongestionThreshold != 0.43 ||
		cfg.Routing.PBGlobalRel != 3 || cfg.Routing.PBLocalPkts != 5 {
		t.Errorf("routing thresholds deviate from Table I: %+v", cfg.Routing)
	}
}

// Determinism: identical seeds give bit-identical results.
func TestDeterminism(t *testing.T) {
	cfg := small()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.35
	a, b := runOn(t, core, cfg), runOn(t, core, cfg)
	if d := b.acc.diff(a.acc); d != "" {
		t.Fatalf("identical runs differ: %s", d)
	}
}

func TestSeedsDiffer(t *testing.T) {
	cfg := small()
	cfg.Pattern = "UN"
	cfg.Load = 0.3
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.Delivered() == b.Delivered() && a.Total.LatencySum == b.Total.LatencySum {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

// The parallel engine must be bit-identical to the sequential one, for
// every mechanism class (PB exercises the extra barrier phase).
func TestParallelMatchesSequential(t *testing.T) {
	for _, mech := range []string{"MIN", "Obl-RRG", "Src-CRG", "In-Trns-MM"} {
		for _, pat := range []string{"UN", "ADVc"} {
			cfg := small()
			cfg.Mechanism = mech
			cfg.Pattern = pat
			cfg.Load = 0.35
			cfg.Workers = 1
			seq := runOn(t, core, cfg)
			cfg.Workers = 4
			par := runOn(t, core, cfg)
			if d := par.acc.diff(seq.acc); d != "" {
				t.Fatalf("%s/%s: the engines differ: %s", mech, pat, d)
			}
		}
	}
}

// Throughput at low load equals offered load for every mechanism.
func TestLowLoadAccepted(t *testing.T) {
	for _, mech := range []string{"MIN", "Obl-RRG", "Obl-CRG", "Src-RRG", "Src-CRG", "In-Trns-RRG", "In-Trns-CRG", "In-Trns-MM"} {
		cfg := small()
		cfg.Mechanism = mech
		cfg.Pattern = "UN"
		cfg.Load = 0.1
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		thr := res.Throughput()
		if thr < 0.09 || thr > 0.11 {
			t.Errorf("%s: accepted %.4f at offered 0.1", mech, thr)
		}
	}
}

// Conservation: generated packets are delivered or still in flight.
func TestPacketConservation(t *testing.T) {
	cfg := small()
	cfg.Pattern = "ADVc"
	cfg.Mechanism = "In-Trns-CRG"
	cfg.Load = 0.4
	cfg.WarmupCycles = 0 // count every generated packet
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunNetwork(net, &cfg); err != nil {
		t.Fatal(err)
	}
	total := newResult(net, &cfg, 0).Total
	if got := total.Generated - total.Delivered - int64(net.InFlight()); got != 0 {
		t.Errorf("conservation violated: generated %d, delivered %d, in flight %d (diff %d)",
			total.Generated, total.Delivered, net.InFlight(), got)
	}
	if total.Generated == 0 {
		t.Fatal("nothing generated")
	}
}

// The latency breakdown identity holds in aggregate: the component sum
// equals the measured average latency.
func TestBreakdownIdentity(t *testing.T) {
	for _, mech := range []string{"MIN", "Obl-RRG", "In-Trns-MM"} {
		cfg := small()
		cfg.Mechanism = mech
		cfg.Pattern = "ADVc"
		cfg.Load = 0.3
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := res.Breakdown()
		if diff := b.Total() - res.AvgLatency(); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: breakdown total %.6f != avg latency %.6f", mech, b.Total(), res.AvgLatency())
		}
	}
}

// Offered load above 1 phit/node/cycle saturates generation at 1 packet
// per PacketSize cycles; nothing breaks.
func TestOverloadedGeneration(t *testing.T) {
	cfg := small()
	cfg.Load = 1.5
	cfg.Mechanism = "Obl-RRG"
	cfg.Pattern = "UN"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() <= 0.3 {
		t.Errorf("throughput %.3f at overload, want saturation-level", res.Throughput())
	}
	if res.Backlogged() == 0 {
		t.Error("expected source-queue backlog at overload")
	}
}

func TestZeroLoad(t *testing.T) {
	cfg := small()
	cfg.Load = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered() != 0 || res.Throughput() != 0 {
		t.Errorf("zero load delivered %d packets", res.Delivered())
	}
}

// GroupInjections slices the right routers.
func TestGroupInjections(t *testing.T) {
	cfg := small()
	cfg.Load = 0.2
	res := runOn(t, core, cfg)
	a := cfg.Topology.A
	for g := 0; g < cfg.Topology.Groups(); g++ {
		inj := res.GroupInjections(g)
		if len(inj) != a {
			t.Fatalf("group %d has %d routers, want %d", g, len(inj), a)
		}
		for i, v := range inj {
			if v != res.acc.routers[g*a+i].Injected {
				t.Fatalf("group slice mismatch at g%d r%d", g, i)
			}
		}
	}
}

// The consecutive arrangement must behave like palmtree with the
// bottleneck at router 0 instead of a-1.
func TestConsecutiveArrangement(t *testing.T) {
	cfg := small()
	cfg.Topology.Arrangement = topology.Consecutive
	cfg.Mechanism = "In-Trns-CRG"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.35
	cfg.Router.Arbitration = router.TransitOverInjection
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() <= 0 {
		t.Fatal("no traffic delivered under the consecutive arrangement")
	}
	topo := topology.New(cfg.Topology)
	if topo.BottleneckRouter() != 0 {
		t.Fatal("consecutive arrangement bottleneck is not router 0")
	}
}

// Permutation pattern runs end to end.
func TestPermutationPattern(t *testing.T) {
	cfg := small()
	cfg.Pattern = "PERM"
	cfg.Mechanism = "Obl-RRG"
	cfg.Load = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() < 0.15 {
		t.Errorf("permutation throughput %.3f too low", res.Throughput())
	}
}

// Application-uniform traffic: only allocation members inject.
func TestAppTrafficMembersOnly(t *testing.T) {
	cfg := small()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	topo := topology.New(cfg.Topology)
	_ = topo
	res, err := RunWithPattern(cfg, nil) // sanity: nil falls back to cfg.Pattern
	if err != nil {
		t.Fatal(err)
	}
	if res.Pattern != "UN" {
		t.Fatalf("fallback pattern = %q", res.Pattern)
	}
}

// Batch-means accounting: the batches partition DeliveredPhits exactly,
// their mean equals the overall throughput, and the confidence interval is
// tight at steady state.
func TestThroughputBatches(t *testing.T) {
	cfg := small()
	cfg.Pattern = "UN"
	cfg.Load = 0.3
	cfg.MeasureCycles = 4000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, b := range res.Total.BatchPhits {
		sum += b
	}
	if sum != res.Total.DeliveredPhits {
		t.Fatalf("batch phits %d != delivered %d", sum, res.Total.DeliveredPhits)
	}
	ci := res.ThroughputCI()
	thr := res.Throughput()
	if diff := ci.Mean - thr; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("batch mean %.6f != throughput %.6f", ci.Mean, thr)
	}
	if ci.HalfCI95 <= 0 {
		t.Error("CI half-width should be positive for stochastic traffic")
	}
	if ci.HalfCI95 > 0.15*thr {
		t.Errorf("CI half-width %.4f too wide for steady-state UN (thr %.4f)", ci.HalfCI95, thr)
	}
}

func TestGroupDelivered(t *testing.T) {
	cfg := small()
	cfg.Load = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for g := 0; g < cfg.Topology.Groups(); g++ {
		for _, d := range res.GroupDelivered(g) {
			sum += d
		}
	}
	if sum != res.Delivered() {
		t.Errorf("group delivered sum %d != total %d", sum, res.Delivered())
	}
}

func TestResultWallAndSeed(t *testing.T) {
	cfg := small()
	cfg.Seed = 77
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 77 {
		t.Errorf("Seed = %d", res.Seed)
	}
	if res.Wall <= 0 {
		t.Error("Wall not recorded")
	}
	if res.MeasuredCycles != cfg.MeasureCycles || res.Nodes != cfg.Topology.Nodes() {
		t.Error("result dimensions wrong")
	}
}

// RunNetwork may be called any number of times on one network, and every
// call has its own warm-up: the accumulators carry over, but a later run
// adds only what its measurement window saw. (With a broadcast "measuring"
// flag that nothing ever switched off, the second run also counted its
// 400 warm-up cycles: 1,572 generated packets after the first run's 578,
// instead of 509.)
func TestSecondRunWarmupIsNotMeasured(t *testing.T) {
	cfg := small()
	cfg.Mechanism, cfg.Pattern, cfg.Load = "MIN", "UN", 0.3
	cfg.WarmupCycles, cfg.MeasureCycles = 400, 200
	net, err := NewNetwork(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var after [2]stats.Router
	for i := range after {
		if err := RunNetwork(net, &cfg); err != nil {
			t.Fatal(err)
		}
		after[i] = newResult(net, &cfg, 0).Total
	}
	first, second := after[0].Generated, after[1].Generated-after[0].Generated
	// Two 200-cycle windows of one stationary Bernoulli process.
	if first == 0 || second < first*3/4 || second > first*5/4 {
		t.Errorf("first run generated %d packets in its measurement window, the second %d: its warm-up was measured", first, second)
	}
	var batches int64
	for _, b := range after[1].BatchPhits {
		batches += b
	}
	if batches != after[1].DeliveredPhits {
		t.Errorf("batch phits %d != delivered %d after two runs", batches, after[1].DeliveredPhits)
	}
}

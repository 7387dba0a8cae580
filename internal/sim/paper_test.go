package sim

import (
	"testing"

	"dragonfly/internal/router"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// These tests assert the paper's qualitative results — the shapes of
// Figures 2-6 and Tables II/III — on scaled-down networks where they are
// visible in seconds. EXPERIMENTS.md records the corresponding full-size
// numbers.

// fairCfg is the scaled Figure 4/6 configuration: a balanced h=3 Dragonfly
// where the per-local-link demand toward the bottleneck router exceeds the
// link bandwidth at the paper's 0.4 operating point (load*p > 1), the
// regime that produces the unfairness.
func fairCfg(mech string, arb router.Arbitration) Config {
	cfg := DefaultConfig()
	cfg.Topology = topology.Balanced(3)
	cfg.Mechanism = mech
	cfg.Pattern = "ADVc"
	cfg.Load = 0.4
	cfg.WarmupCycles = 2500
	cfg.MeasureCycles = 5000
	cfg.Router.Arbitration = arb
	cfg.Workers = 4
	return cfg
}

// skipInShort skips the paper-scale fairness cases under -short: they
// dominate the suite's runtime (several seconds each) and stay fully
// covered by the default `go test ./...` run.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-scale case: skipped with -short")
	}
}

// MIN saturates at 1/(a*p) under ADV+1 — the paper's Section III bound.
func TestMINThroughputBoundADV(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "MIN"
	cfg.Pattern = "ADV+1"
	cfg.Load = 0.5
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 4000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bound := 1.0 / float64(cfg.Topology.A*cfg.Topology.P)
	thr := res.Throughput()
	if thr < 0.8*bound || thr > 1.1*bound {
		t.Errorf("MIN/ADV+1 throughput %.4f, want ~1/(ap)=%.4f", thr, bound)
	}
}

// MIN saturates near h/(a*p) under ADVc — less severe than ADV, as the
// paper notes.
func TestMINThroughputBoundADVc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "MIN"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.5
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 4000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(cfg.Topology.H) / float64(cfg.Topology.A*cfg.Topology.P)
	thr := res.Throughput()
	if thr < 0.7*bound || thr > 1.1*bound {
		t.Errorf("MIN/ADVc throughput %.4f, want ~h/(ap)=%.4f", thr, bound)
	}
}

// Nonminimal routing avoids both limitations (Figure 2b/2c): Valiant
// sustains several times the MIN ceiling under adversarial traffic.
func TestValiantLiftsAdversarialThroughput(t *testing.T) {
	for _, pat := range []string{"ADV+1", "ADVc"} {
		cfg := DefaultConfig()
		cfg.Mechanism = "Obl-RRG"
		cfg.Pattern = pat
		cfg.Load = 0.4
		cfg.WarmupCycles = 2000
		cfg.MeasureCycles = 4000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if thr := res.Throughput(); thr < 0.35 {
			t.Errorf("Obl-RRG/%s throughput %.3f, want ~offered 0.4", pat, thr)
		}
	}
}

// Under UN, MIN has lower latency than Valiant (Figure 2a): nonminimal
// paths roughly double the zero-load latency.
func TestUNLatencyOrdering(t *testing.T) {
	run := func(mech string) float64 {
		cfg := DefaultConfig()
		cfg.Mechanism = mech
		cfg.Pattern = "UN"
		cfg.Load = 0.2
		cfg.WarmupCycles = 1500
		cfg.MeasureCycles = 3000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatency()
	}
	minLat, valLat, crgLat := run("MIN"), run("Obl-RRG"), run("Obl-CRG")
	if !(minLat < valLat) {
		t.Errorf("MIN latency %.1f should be below Valiant %.1f under UN", minLat, valLat)
	}
	// CRG saves the first local hop: latency between MIN and RRG.
	if !(crgLat < valLat) {
		t.Errorf("Obl-CRG latency %.1f should be below Obl-RRG %.1f", crgLat, valLat)
	}
	// Source-adaptive routing matches MIN at low UN load (PB sends
	// minimally when nothing is saturated).
	pbLat := run("Src-RRG")
	if pbLat > minLat*1.15 {
		t.Errorf("Src-RRG latency %.1f should track MIN %.1f at low UN load", pbLat, minLat)
	}
}

// The core claim (Figure 4 / Table II): with transit-over-injection
// priority under ADVc, the adaptive mechanisms starve the bottleneck
// router; oblivious routing stays fair; and no global misrouting policy
// fixes it.
func TestADVcUnfairnessWithPriority(t *testing.T) {
	skipInShort(t)
	type expect struct {
		mech    string
		starved bool
	}
	cases := []expect{
		{"Obl-RRG", false},
		{"Obl-CRG", false},
		{"Src-RRG", true},
		{"Src-CRG", true},
		{"In-Trns-CRG", true},
		{"In-Trns-MM", true},
	}
	bneck := topology.New(topology.Balanced(3)).BottleneckRouter()
	for _, c := range cases {
		res, err := Run(fairCfg(c.mech, router.TransitOverInjection))
		if err != nil {
			t.Fatalf("%s: %v", c.mech, err)
		}
		inj := res.GroupInjections(0)
		others := int64(0)
		for i, v := range inj {
			if i != bneck {
				others += v
			}
		}
		mean := float64(others) / float64(len(inj)-1)
		ratio := float64(inj[bneck]) / mean
		if c.starved && ratio > 0.55 {
			t.Errorf("%s: bottleneck injects %.0f%% of its peers — expected starvation (%v)",
				c.mech, ratio*100, inj)
		}
		if !c.starved && ratio < 0.80 {
			t.Errorf("%s: bottleneck injects only %.0f%% of its peers — expected fairness (%v)",
				c.mech, ratio*100, inj)
		}
	}
}

// Removing the priority restores fairness for the in-transit mechanisms,
// identically across policies (Figure 6 / Table III), and the improvement
// is large.
func TestADVcFairnessWithoutPriority(t *testing.T) {
	skipInShort(t)
	for _, mech := range []string{"In-Trns-RRG", "In-Trns-CRG", "In-Trns-MM"} {
		res, err := Run(fairCfg(mech, router.RoundRobin))
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		f := res.Fairness()
		if f.MaxMin > 2.0 {
			t.Errorf("%s without priority: Max/Min %.2f, want near-fair (<2)", mech, f.MaxMin)
		}
		if f.CoV > 0.12 {
			t.Errorf("%s without priority: CoV %.3f, want < 0.12", mech, f.CoV)
		}
	}
}

// Priority hurts fairness: CoV with priority must exceed CoV without, for
// the mechanisms the paper flags.
func TestPriorityDegradesFairness(t *testing.T) {
	skipInShort(t)
	for _, mech := range []string{"Src-RRG", "In-Trns-CRG", "In-Trns-MM"} {
		with, err := Run(fairCfg(mech, router.TransitOverInjection))
		if err != nil {
			t.Fatal(err)
		}
		without, err := Run(fairCfg(mech, router.RoundRobin))
		if err != nil {
			t.Fatal(err)
		}
		if with.Fairness().CoV <= without.Fairness().CoV {
			t.Errorf("%s: CoV with priority %.3f <= without %.3f",
				mech, with.Fairness().CoV, without.Fairness().CoV)
		}
	}
}

// The paper's future work, our extension: age-based arbitration removes
// the ADVc unfairness even for the worst mechanism/policy combination.
func TestAgeArbitrationRestoresFairness(t *testing.T) {
	skipInShort(t)
	for _, mech := range []string{"In-Trns-CRG", "In-Trns-MM", "Src-CRG"} {
		res, err := Run(fairCfg(mech, router.AgeBased))
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		f := res.Fairness()
		if f.MaxMin > 2.0 || f.CoV > 0.12 {
			t.Errorf("%s with age arbitration: Max/Min %.2f CoV %.3f, want fair",
				mech, f.MaxMin, f.CoV)
		}
	}
}

// Oblivious routing is insensitive to the arbitration policy (Figures 4/6:
// same bars in both).
func TestObliviousInsensitiveToPriority(t *testing.T) {
	skipInShort(t)
	with, err := Run(fairCfg("Obl-RRG", router.TransitOverInjection))
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(fairCfg("Obl-RRG", router.RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	cw, cwo := with.Fairness().CoV, without.Fairness().CoV
	if cw > 0.08 || cwo > 0.08 {
		t.Errorf("oblivious CoV %.3f/%.3f, want fair under both arbitrations", cw, cwo)
	}
}

// Figure 3's signature: under ADVc with in-transit MM, the injection-queue
// component dominates the latency at the unfairness peak and misrouting
// grows with load.
func TestBreakdownShape(t *testing.T) {
	cfg := fairCfg("In-Trns-MM", router.TransitOverInjection)
	lowCfg := cfg
	lowCfg.Load = 0.05
	low, err := Run(lowCfg)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bl, bh := low.Breakdown(), high.Breakdown()
	if !(bh.Misroute > bl.Misroute) {
		t.Errorf("misroute component should grow with load: %.1f -> %.1f", bl.Misroute, bh.Misroute)
	}
	if !(bh.WaitInj > bl.WaitInj) {
		t.Errorf("injection-queue component should grow toward the peak: %.1f -> %.1f", bl.WaitInj, bh.WaitInj)
	}
	if bl.Base <= 0 || bh.Base <= 0 {
		t.Error("base latency must be positive")
	}
}

// Under UN the transit priority costs only a little throughput (the paper
// reports ~1.2% for MIN).
func TestPriorityBenignUnderUN(t *testing.T) {
	skipInShort(t)
	run := func(arb router.Arbitration) float64 {
		cfg := DefaultConfig()
		cfg.Topology = topology.Balanced(3)
		cfg.Mechanism = "MIN"
		cfg.Pattern = "UN"
		cfg.Load = 0.7
		cfg.WarmupCycles = 2000
		cfg.MeasureCycles = 4000
		cfg.Router.Arbitration = arb
		cfg.Workers = 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput()
	}
	with, without := run(router.TransitOverInjection), run(router.RoundRobin)
	if with < without*0.95 {
		t.Errorf("UN throughput with priority %.3f vs without %.3f: priority should be benign", with, without)
	}
}

// The job-allocation use case of Section III: uniform application traffic
// over h+1 consecutive groups starves the member groups' bottleneck
// routers.
func TestAppAllocationCreatesADVc(t *testing.T) {
	cfg := fairCfg("In-Trns-MM", router.TransitOverInjection)
	apps := cfg.Topology.H + 1
	wl, err := workload.Compile(topology.New(cfg.Topology), workload.AppSpec(cfg.Topology, 0, apps), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithPattern(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	bneck := topology.New(cfg.Topology).BottleneckRouter()
	inj := res.GroupInjections(0)
	others := int64(0)
	for i, v := range inj {
		if i != bneck {
			others += v
		}
	}
	mean := float64(others) / float64(len(inj)-1)
	if mean == 0 {
		t.Fatal("allocation members injected nothing")
	}
	if ratio := float64(inj[bneck]) / mean; ratio > 0.7 {
		t.Errorf("bottleneck injects %.0f%% of peers; uniform app traffic should still starve it (%v)",
			ratio*100, inj)
	}
	// Groups outside the allocation must be silent.
	outside := res.GroupInjections(apps + 2)
	for i, v := range outside {
		if v != 0 {
			t.Fatalf("router %d of an idle group injected %d packets", i, v)
		}
	}
}

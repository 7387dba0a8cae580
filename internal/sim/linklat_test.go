package sim

import (
	"math"
	"testing"

	"dragonfly/internal/analytic"
	"dragonfly/internal/router"
	"dragonfly/internal/topology"
)

// At very low load under non-default uniform latencies, measured latency
// must match the closed-form zero-load model — the pathCost layers all
// price the runtime latencies, not the Table I constants.
func TestZeroLoadLatencyNonDefaultUniform(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "MIN"
	cfg.Pattern = "UN"
	cfg.Load = 0.01
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 6000
	cfg.LatencyModel = topology.UniformLatency{Local: 25, Global: 250}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := router.DefaultConfig() // Table I's router
	topo := topology.New(cfg.Topology)
	want := analytic.MeanZeroLoadLatency(topo, cfg.LatencyModel,
		r.PipelineCycles, r.CrossbarCycles(), r.SerialCycles())
	got := res.AvgLatency()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("low-load latency %.1f, analytic %.1f (>5%% apart)", got, want)
	}
}

// The heterogeneous acceptance case: a group-skew latency topology runs
// end-to-end and its zero-load latency matches the exact analytic
// expectation (enumerated over router pairs, per-cable pricing).
func TestZeroLoadLatencyHeterogeneous(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "MIN"
	cfg.Pattern = "UN"
	cfg.Load = 0.01
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 8000
	cfg.LatencyModel = topology.GroupSkewLatency{Local: 10, GlobalBase: 100, GlobalStep: 10}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := router.DefaultConfig() // Table I's router
	topo := topology.New(cfg.Topology)
	want := analytic.MeanZeroLoadLatency(topo, cfg.LatencyModel,
		r.PipelineCycles, r.CrossbarCycles(), r.SerialCycles())
	uniform := analytic.MeanZeroLoadLatency(topo, topology.UniformLatency{Local: 10, Global: 100},
		r.PipelineCycles, r.CrossbarCycles(), r.SerialCycles())
	if want <= uniform {
		t.Fatalf("groupskew expectation %.1f not above uniform %.1f — preset not heterogeneous?", want, uniform)
	}
	got := res.AvgLatency()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("heterogeneous low-load latency %.1f, analytic %.1f (>5%% apart)", got, want)
	}
	// The latency identity survives heterogeneity: base+misroute+waits
	// must equal the average total exactly.
	b := res.Breakdown()
	if diff := b.Total() - res.AvgLatency(); math.Abs(diff) > 1e-6 {
		t.Errorf("breakdown total %.6f != avg latency %.6f under heterogeneous latencies", b.Total(), res.AvgLatency())
	}
}

// A latency model returning a non-positive latency, or one past the 32 bits
// the core stores it in, must be rejected at build time, not crash mid-run.
type badModel struct{ global int }

func (badModel) Name() string                                     { return "bad" }
func (badModel) LocalLatency(*topology.Topology, int, int) int    { return 10 }
func (m badModel) GlobalLatency(*topology.Topology, int, int) int { return m.global }

func TestBadLatencyModelRejected(t *testing.T) {
	for _, global := range []int{0, 1 << 31} {
		cfg := DefaultConfig()
		cfg.LatencyModel = badModel{global}
		if _, err := NewNetwork(&cfg, nil); err == nil {
			t.Errorf("link latency %d accepted", global)
		}
	}
}

// Inside a window a group runs up to a lookahead ahead of the groups behind
// it, so a saturated global link piles that many extra cycles of packets —
// and the link back that many credits — into the receiver's event ring
// before the receiver pops anything (Core.layoutRings sizes global rings for
// it). ADVc far past saturation keeps the bottleneck group's global links
// busy every cycle of every window; if the rings were a slot short the
// "link event ring full" panic would fire inside the first window. No
// sizing switch: this is the production geometry, run hard, under the
// Table I latencies, a non-default uniform pair and group skew.
func TestGlobalRingsHoldAWindowOfLookahead(t *testing.T) {
	for _, mech := range []string{"MIN", "In-Trns-MM"} {
		for _, lat := range []wiring{{"uniform", 10, 100, 0}, {"uniform", 3, 17, 0}, {"groupskew", 10, 100, 10}} {
			cfg := DefaultConfig()
			cfg.Topology = topology.Balanced(3)
			cfg.Mechanism, cfg.Pattern, cfg.Load = mech, "ADVc", 1.0
			cfg.WarmupCycles, cfg.MeasureCycles = 100, 700
			cfg.LatencyModel = lat.latency()
			net, err := NewNetwork(&cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := RunNetwork(net, &cfg); err != nil {
				t.Fatal(err)
			}
			look := net.core.Lookahead()
			if windows := net.EngineWindows(); windows < 5 || windows > 2*(800/look+9) {
				t.Errorf("%s/%v: %d windows over 800 cycles at lookahead %d", mech, lat, windows, look)
			}
			if thr := newResult(net, &cfg, 0).Throughput(); thr <= 0 || thr > cfg.Load/2 {
				t.Errorf("%s/%v: accepted %.3f of an offered %.1f — not past saturation", mech, lat, thr, cfg.Load)
			}
		}
	}
}

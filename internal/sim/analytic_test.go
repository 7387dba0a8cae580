package sim

import (
	"math"
	"testing"

	"dragonfly/internal/analytic"
	"dragonfly/internal/router"
	"dragonfly/internal/topology"
)

// Cross-validation of the simulator against the closed-form bounds of the
// analytic package: zero-load latency must match exactly. The saturation
// ceilings are the ceiling/* rows of TestPaperClaims (paper_test.go).

// At very low uniform load, the measured average latency must match the
// analytic zero-load latency computed from the mean minimal hop counts.
func TestZeroLoadLatencyMatchesAnalytic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "MIN"
	cfg.Pattern = "UN"
	cfg.Load = 0.01
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 6000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := router.DefaultConfig() // Table I's router
	local, global := analytic.MeanMinimalHops(cfg.Topology)
	// E[latency] over the hop distribution: per-router and per-link costs
	// are linear in the hop counts, so the mean hop counts suffice.
	perRouter := float64(r.PipelineCycles + r.CrossbarCycles() + r.SerialCycles())
	lat := cfg.LatencyModel.(topology.UniformLatency)
	want := (local+global+1)*perRouter + local*float64(lat.Local) + global*float64(lat.Global)
	got := res.AvgLatency()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("low-load latency %.1f, analytic %.1f (>5%% apart)", got, want)
	}
}

// The paper's unfairness precondition: the scaled fairness configuration
// must oversubscribe both the bottleneck's global links and the local
// links feeding it, like the paper's full-size operating point does.
func TestScaledConfigPreservesRegime(t *testing.T) {
	full := topology.Balanced(6)
	scaled := topology.Balanced(3)
	load := 0.4
	if analytic.BottleneckOversubscription(full, load) <= 1 ||
		analytic.BottleneckOversubscription(scaled, load) <= 1 {
		t.Error("global links not oversubscribed at the Figure 4 operating point")
	}
	if analytic.LocalLinkOversubscription(full, load) <= 1 ||
		analytic.LocalLinkOversubscription(scaled, load) <= 1 {
		t.Error("local links not oversubscribed at the Figure 4 operating point")
	}
}

// p99 latency from the histogram must bracket the mean and the max.
func TestLatencyQuantiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pattern = "ADVc"
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.35
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 3000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p50 := res.LatencyQuantile(0.50)
	p99 := res.LatencyQuantile(0.99)
	if p50 > p99 {
		t.Errorf("p50 %d > p99 %d", p50, p99)
	}
	// Upper-bound estimates: p99 may exceed the true max by at most one
	// power-of-two bucket.
	if p99 > res.MaxLatency()*2 {
		t.Errorf("p99 %d implausibly above max %d", p99, res.MaxLatency())
	}
	if float64(p99) < res.AvgLatency()/2 {
		t.Errorf("p99 %d below half the mean %.0f", p99, res.AvgLatency())
	}
}

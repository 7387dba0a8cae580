package analytic

import (
	"math"
	"testing"

	"dragonfly/internal/topology"
)

func TestPaperBounds(t *testing.T) {
	p := topology.Balanced(6) // the paper's network
	if got := MinThroughputADV(p); math.Abs(got-1.0/72) > 1e-12 {
		t.Errorf("ADV bound = %v, want 1/72", got)
	}
	if got := MinThroughputADVc(p); math.Abs(got-6.0/72) > 1e-12 {
		t.Errorf("ADVc bound = %v, want 6/72 (the paper's h/ap)", got)
	}
	if got := MinThroughputUN(p); got != 1 {
		t.Errorf("UN bound for balanced dragonfly = %v, want 1 (injection limited)", got)
	}
	if got := ValiantThroughputUN(p); math.Abs(got-0.5) > 0.01 {
		t.Errorf("Valiant UN bound = %v, want ~0.5", got)
	}
	if got := ValiantThroughputADV(p); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Valiant ADV bound = %v, want h/2p = 0.5", got)
	}
}

func TestUnbalancedBounds(t *testing.T) {
	p := topology.Params{P: 4, A: 4, H: 2}
	// h/p = 0.5: the global links cap UN throughput below injection.
	if got := MinThroughputUN(p); got >= 0.6 || got <= 0.4 {
		t.Errorf("unbalanced UN bound = %v, want ~0.5", got)
	}
	if got := ValiantThroughputADV(p); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("unbalanced Valiant ADV bound = %v, want 0.25", got)
	}
}

// With a uniform model, the exact router-pair enumeration must agree with
// the closed-form mean-hop pricing.
func TestMeanZeroLoadLatencyMatchesUniformClosedForm(t *testing.T) {
	for _, h := range []int{2, 3} {
		p := topology.Balanced(h)
		topo := topology.New(p)
		m := topology.UniformLatency{Local: 10, Global: 100}
		got := MeanZeroLoadLatency(topo, m, 5, 4, 8)
		local, global := MeanMinimalHops(p)
		perRouter := float64(5 + 4 + 8)
		want := (local+global+1)*perRouter + local*10 + global*100
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("h=%d: enumerated %.6f, closed form %.6f", h, got, want)
		}
	}
}

// Group-skew pricing must exceed uniform pricing with the same base
// (every non-adjacent cable got longer, none got shorter).
func TestMeanZeroLoadLatencyGroupSkewAboveUniform(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	uni := MeanZeroLoadLatency(topo, topology.UniformLatency{Local: 10, Global: 100}, 5, 4, 8)
	skew := MeanZeroLoadLatency(topo, topology.GroupSkewLatency{Local: 10, GlobalBase: 100, GlobalStep: 10}, 5, 4, 8)
	if skew <= uni {
		t.Errorf("groupskew mean %.2f not above uniform %.2f", skew, uni)
	}
}

func TestMeanMinimalHops(t *testing.T) {
	p := topology.Balanced(3)
	local, global := MeanMinimalHops(p)
	if global <= 0.9 || global > 1 {
		t.Errorf("mean global hops = %v, want close to 1", global)
	}
	// Almost every path needs ~2(1-1/a) local hops.
	want := 2 * (1 - 1.0/float64(p.A))
	if math.Abs(local-want) > 0.1 {
		t.Errorf("mean local hops = %v, want ~%v", local, want)
	}
}

func TestOversubscription(t *testing.T) {
	p := topology.Balanced(6)
	if got := BottleneckOversubscription(p, 0.4); math.Abs(got-4.8) > 1e-9 {
		t.Errorf("global oversubscription at 0.4 = %v, want 4.8", got)
	}
	if got := LocalLinkOversubscription(p, 0.4); math.Abs(got-2.4) > 1e-9 {
		t.Errorf("local oversubscription at 0.4 = %v, want 2.4", got)
	}
	// The scaled test configuration (h=3) keeps the same regime.
	p3 := topology.Balanced(3)
	if got := LocalLinkOversubscription(p3, 0.4); got <= 1 {
		t.Errorf("scaled config leaves the starvation regime: %v", got)
	}
}

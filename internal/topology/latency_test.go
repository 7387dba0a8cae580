package topology

import (
	"math"
	"strings"
	"testing"
)

func TestUniformLatencyModel(t *testing.T) {
	topo := New(Balanced(2))
	m := UniformLatency{Local: 10, Global: 100}
	if m.Name() != "uniform" {
		t.Errorf("Name() = %q", m.Name())
	}
	if got := m.LocalLatency(topo, 0, 1); got != 10 {
		t.Errorf("LocalLatency = %d", got)
	}
	if got := m.GlobalLatency(topo, 0, topo.NumRouters()-1); got != 100 {
		t.Errorf("GlobalLatency = %d", got)
	}
}

// Group-skew global latencies must be positive, symmetric (both ends of a
// cable agree), grow with circular group distance, and leave local links
// uniform.
func TestGroupSkewLatencyModel(t *testing.T) {
	topo := New(Balanced(3))
	m := GroupSkewLatency{Local: 10, GlobalBase: 100, GlobalStep: 10}
	p := topo.Params()
	seenMin, seenMax := int(^uint(0)>>1), 0
	for r := 0; r < topo.NumRouters(); r++ {
		for gp := p.A - 1; gp < p.A-1+p.H; gp++ {
			nb, _ := topo.GlobalNeighbor(r, gp)
			lat := m.GlobalLatency(topo, r, nb)
			if lat < 100 {
				t.Fatalf("global latency %d below base for %d->%d", lat, r, nb)
			}
			if back := m.GlobalLatency(topo, nb, r); back != lat {
				t.Fatalf("asymmetric cable %d->%d: %d vs %d", r, nb, lat, back)
			}
			if lat < seenMin {
				seenMin = lat
			}
			if lat > seenMax {
				seenMax = lat
			}
		}
	}
	if seenMin == seenMax {
		t.Errorf("groupskew produced uniform latencies (%d everywhere)", seenMin)
	}
	// Adjacent groups pay the base; the farthest pair pays
	// base + (floor(G/2)-1)*step.
	if seenMin != 100 {
		t.Errorf("minimum global latency %d, want base 100", seenMin)
	}
	wantMax := 100 + (topo.NumGroups()/2-1)*10
	if seenMax != wantMax {
		t.Errorf("maximum global latency %d, want %d", seenMax, wantMax)
	}
	if got := m.LocalLatency(topo, 0, 1); got != 10 {
		t.Errorf("LocalLatency = %d, want uniform 10", got)
	}
}

func TestLatencyModelByName(t *testing.T) {
	m, err := LatencyModelByName("uniform", 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := m.(UniformLatency); !ok || u.Local != 10 || u.Global != 100 {
		t.Errorf("uniform resolved to %#v", m)
	}
	if m, err = LatencyModelByName("", 7, 70); err != nil {
		t.Fatal(err)
	} else if u := m.(UniformLatency); u.Local != 7 || u.Global != 70 {
		t.Errorf("empty name resolved to %#v", m)
	}
	m, err = LatencyModelByName("GroupSkew", 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := m.(GroupSkewLatency); !ok || g.GlobalBase != 100 || g.GlobalStep != 10 {
		t.Errorf("groupskew resolved to %#v", m)
	}
	// Tiny base latencies still get a positive step.
	m, _ = LatencyModelByName("groupskew", 1, 3)
	if g := m.(GroupSkewLatency); g.GlobalStep < 1 {
		t.Errorf("groupskew step %d not positive", g.GlobalStep)
	}
	if _, err := LatencyModelByName("spiral", 10, 100); err == nil {
		t.Error("unknown model accepted")
	} else if !strings.Contains(err.Error(), "groupskew") {
		t.Errorf("error does not list known models: %v", err)
	}
}

// ValidateLatency refuses, by arithmetic, every model that assigns some link
// a latency outside [1, MaxInt32] cycles on the topology, and accepts the
// largest that fit. At h=2 the farthest groups are ⌊9/2⌋ = 4 apart, so
// groupskew's far links cost GlobalBase + 3·GlobalStep.
func TestValidateLatency(t *testing.T) {
	const max = math.MaxInt32
	for _, tc := range []struct {
		name string
		m    LatencyModel
		want string // "" accepts
	}{
		{"table I", UniformLatency{Local: 10, Global: 100}, ""},
		{"uniform largest", UniformLatency{Local: max, Global: max}, ""},
		{"uniform local 0", UniformLatency{Local: 0, Global: 100}, "must be positive"},
		{"uniform global 0", UniformLatency{Local: 10, Global: 0}, "must be positive"},
		{"uniform local 2^31", UniformLatency{Local: 1 << 31, Global: 100}, "at most 2147483647 cycles"},
		{"uniform global 2^31", UniformLatency{Local: 10, Global: 1 << 31}, "at most 2147483647 cycles"},
		{"groupskew far link largest", GroupSkewLatency{Local: 10, GlobalBase: max - 3*7, GlobalStep: 7}, ""},
		{"groupskew far link 2^31", GroupSkewLatency{Local: 10, GlobalBase: max - 3*7 + 1, GlobalStep: 7}, "at most 2147483647 cycles"},
		// The -latency-model groupskew -global-lat 2147483000 preset.
		{"groupskew preset", GroupSkewLatency{Local: 10, GlobalBase: 2147483000, GlobalStep: 214748300}, "at most 2147483647 cycles"},
		{"groupskew step past int64", GroupSkewLatency{Local: 10, GlobalBase: 100, GlobalStep: math.MaxInt64}, "at most 2147483647 cycles"},
		{"groupskew base past int64", GroupSkewLatency{Local: 10, GlobalBase: math.MaxInt64, GlobalStep: 1 << 31}, "at most 2147483647 cycles"},
		{"groupskew base below int64", GroupSkewLatency{Local: 10, GlobalBase: math.MinInt64, GlobalStep: -(1 << 31)}, "must be positive"},
		{"groupskew far link 0", GroupSkewLatency{Local: 10, GlobalBase: 30, GlobalStep: -10}, "must be positive"},
		{"groupskew step below int64", GroupSkewLatency{Local: 10, GlobalBase: 100, GlobalStep: math.MinInt64}, "must be positive"},
		{"groupskew local 2^31", GroupSkewLatency{Local: 1 << 31, GlobalBase: 100, GlobalStep: 10}, "at most 2147483647 cycles"},
	} {
		err := ValidateLatency(tc.m, Balanced(2))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// MinimalPathLinkLatency under the uniform model must equal the hop-count
// pricing for every router pair.
func TestMinimalPathLinkLatencyMatchesHops(t *testing.T) {
	topo := New(Balanced(2))
	m := UniformLatency{Local: 10, Global: 100}
	p := topo.Params()
	for rs := 0; rs < topo.NumRouters(); rs++ {
		for rd := 0; rd < topo.NumRouters(); rd++ {
			min := topo.MinimalPathLength(rs*p.P, rd*p.P)
			want := int64(min.Local)*10 + int64(min.Global)*100
			if got := MinimalPathLinkLatency(topo, m, rs, rd); got != want {
				t.Fatalf("routers %d->%d: priced %d, want %d (path %+v)", rs, rd, got, want, min)
			}
		}
	}
}

// Under any model, the minimal path price must decompose into existing
// link latencies: spot-check a few known path shapes on groupskew.
func TestMinimalPathLinkLatencyHeterogeneous(t *testing.T) {
	topo := New(Balanced(2))
	m := GroupSkewLatency{Local: 5, GlobalBase: 50, GlobalStep: 7}
	// Same router: free.
	if got := MinimalPathLinkLatency(topo, m, 3, 3); got != 0 {
		t.Errorf("same-router price %d", got)
	}
	// Same group: one local link.
	if got := MinimalPathLinkLatency(topo, m, 0, 1); got != 5 {
		t.Errorf("intra-group price %d, want 5", got)
	}
	// Inter-group: local legs priced at 5 each, global leg by distance.
	rs, rd := 0, topo.NumRouters()-1
	gs, gd := topo.RouterGroup(rs), topo.RouterGroup(rd)
	exitIdx, _ := topo.GlobalRouterFor(gs, gd)
	entryIdx, _ := topo.GlobalRouterFor(gd, gs)
	exit, entry := topo.RouterID(gs, exitIdx), topo.RouterID(gd, entryIdx)
	want := int64(m.GlobalLatency(topo, exit, entry))
	if exit != rs {
		want += 5
	}
	if entry != rd {
		want += 5
	}
	if got := MinimalPathLinkLatency(topo, m, rs, rd); got != want {
		t.Errorf("inter-group price %d, want %d", got, want)
	}
}

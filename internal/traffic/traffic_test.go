package traffic

import (
	"math"
	"testing"

	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

func newTopo() *topology.Topology { return topology.New(topology.Balanced(2)) }

func TestUniformNeverSelf(t *testing.T) {
	tp := newTopo()
	u := NewUniform(tp)
	r := rng.New(1)
	for src := 0; src < tp.NumNodes(); src += 7 {
		for i := 0; i < 50; i++ {
			d := u.Dest(src, r)
			if d == src {
				t.Fatalf("uniform returned the source %d", src)
			}
			if d < 0 || d >= tp.NumNodes() {
				t.Fatalf("uniform out of range: %d", d)
			}
		}
	}
}

func TestUniformCoversAllNodes(t *testing.T) {
	tp := newTopo()
	u := NewUniform(tp)
	r := rng.New(2)
	seen := make(map[int]bool)
	for i := 0; i < 20000; i++ {
		seen[u.Dest(0, r)] = true
	}
	if len(seen) != tp.NumNodes()-1 {
		t.Errorf("uniform reached %d destinations, want %d", len(seen), tp.NumNodes()-1)
	}
}

func TestAdversarialTargetsOffsetGroup(t *testing.T) {
	tp := newTopo()
	r := rng.New(3)
	for _, off := range []int{1, 2, 5} {
		a := NewAdversarial(tp, off)
		for src := 0; src < tp.NumNodes(); src += 11 {
			d := a.Dest(src, r)
			want := (tp.NodeGroup(src) + off) % tp.NumGroups()
			if tp.NodeGroup(d) != want {
				t.Fatalf("ADV+%d: src group %d -> dst group %d, want %d",
					off, tp.NodeGroup(src), tp.NodeGroup(d), want)
			}
		}
	}
}

func TestAdversarialName(t *testing.T) {
	tp := newTopo()
	if got := NewAdversarial(tp, 1).Name(); got != "ADV+1" {
		t.Errorf("Name() = %q", got)
	}
}

func TestAdversarialPanicsOnBadOffset(t *testing.T) {
	tp := newTopo()
	for _, off := range []int{0, -1, tp.NumGroups()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ADV offset %d did not panic", off)
				}
			}()
			NewAdversarial(tp, off)
		}()
	}
}

func TestADVcTargetsConsecutiveGroups(t *testing.T) {
	tp := newTopo()
	h := tp.Params().H
	c := NewADVc(tp)
	r := rng.New(4)
	counts := make(map[int]int)
	src := 0
	for i := 0; i < 10000; i++ {
		d := c.Dest(src, r)
		off := tp.GroupOffset(tp.NodeGroup(src), tp.NodeGroup(d))
		if off < 1 || off > h {
			t.Fatalf("ADVc offset %d outside [1,%d]", off, h)
		}
		counts[off]++
	}
	// Offsets should be roughly uniform over 1..h.
	want := 10000.0 / float64(h)
	for off, n := range counts {
		if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
			t.Errorf("offset +%d drawn %d times, want ~%.0f", off, n, want)
		}
	}
}

// The defining property of ADVc: all minimal paths from a group meet in one
// router (the bottleneck owning the +1..+h links).
func TestADVcBottleneckProperty(t *testing.T) {
	tp := newTopo()
	c := NewADVc(tp)
	r := rng.New(5)
	bneck := tp.BottleneckRouter()
	for i := 0; i < 2000; i++ {
		d := c.Dest(0, r)
		idx, _ := tp.GlobalRouterFor(tp.NodeGroup(0), tp.NodeGroup(d))
		if idx != bneck {
			t.Fatalf("ADVc destination group %d not behind bottleneck router (owner %d, bottleneck %d)",
				tp.NodeGroup(d), idx, bneck)
		}
	}
}

func TestConsecutiveNames(t *testing.T) {
	tp := newTopo()
	if got := NewADVc(tp).Name(); got != "ADVc" {
		t.Errorf("ADVc Name() = %q", got)
	}
	if got := NewConsecutive(tp, 3).Name(); got != "ADVc(3)" {
		t.Errorf("Consecutive Name() = %q", got)
	}
}

func TestPermutationFixedAndTotal(t *testing.T) {
	tp := newTopo()
	p := NewPermutation(tp, rng.New(8))
	r := rng.New(9)
	seen := make(map[int]bool)
	for src := 0; src < tp.NumNodes(); src++ {
		d := p.Dest(src, r)
		if d == src {
			t.Fatalf("permutation has fixed point at %d", src)
		}
		if d2 := p.Dest(src, r); d2 != d {
			t.Fatalf("permutation not stable for src %d", src)
		}
		if seen[d] {
			t.Fatalf("destination %d used twice", d)
		}
		seen[d] = true
	}
}

func TestByName(t *testing.T) {
	tp := newTopo()
	r := rng.New(10)
	cases := []struct {
		in   string
		want string
	}{
		{"UN", "UN"},
		{"uniform", "UN"},
		{"ADV+1", "ADV+1"},
		{"ADV1", "ADV+1"},
		{"adv+3", "ADV+3"},
		{"ADV", "ADV+1"},
		{"ADVc", "ADVc"},
		{"advc", "ADVc"},
		{"ADVC1", "ADVc(1)"},
		{"PERM", "PERM"},
	}
	for _, c := range cases {
		p, err := ByName(tp, c.in, r)
		if err != nil {
			t.Errorf("ByName(%q): %v", c.in, err)
			continue
		}
		if p.Name() != c.want {
			t.Errorf("ByName(%q).Name() = %q, want %q", c.in, p.Name(), c.want)
		}
	}
	for _, bad := range []string{"", "bogus", "ADV+x", "ADVCx"} {
		if _, err := ByName(tp, bad, r); err == nil {
			t.Errorf("ByName(%q) succeeded, want error", bad)
		}
	}
}

func TestConsecutivePanicsOnBadK(t *testing.T) {
	tp := newTopo()
	for _, k := range []int{0, tp.NumGroups()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Consecutive k=%d did not panic", k)
				}
			}()
			NewConsecutive(tp, k)
		}()
	}
}

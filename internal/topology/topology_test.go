package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBalancedParams(t *testing.T) {
	p := Balanced(6)
	if p.P != 6 || p.A != 12 || p.H != 6 {
		t.Fatalf("Balanced(6) = %+v, want p=6 a=12 h=6", p)
	}
	if got := p.Groups(); got != 73 {
		t.Errorf("Groups() = %d, want 73", got)
	}
	if got := p.Routers(); got != 876 {
		t.Errorf("Routers() = %d, want 876", got)
	}
	if got := p.Nodes(); got != 5256 {
		t.Errorf("Nodes() = %d, want 5256", got)
	}
	if got := p.routerRadix(); got != 23 {
		t.Errorf("RouterRadix() = %d, want 23 as in Table I", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"balanced", Balanced(2), true},
		{"unbalanced", Params{P: 1, A: 3, H: 2}, true},
		{"consecutive", Params{P: 2, A: 4, H: 2, Arrangement: Consecutive}, true},
		{"zero p", Params{P: 0, A: 4, H: 2}, false},
		{"negative p", Params{P: -1, A: 4, H: 2}, false},
		{"one router per group", Params{P: 2, A: 1, H: 2}, false},
		{"zero h", Params{P: 2, A: 4, H: 0}, false},
		{"bad arrangement", Params{P: 2, A: 4, H: 2, Arrangement: Arrangement(9)}, false},
		// 36 routers: node ids must fit 32 bits.
		{"most nodes", Params{P: math.MaxInt32 / 36, A: 4, H: 2}, true},
		{"too many nodes", Params{P: math.MaxInt32/36 + 1, A: 4, H: 2}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate(%+v) = %v, want ok=%v", c.p, err, c.ok)
			}
		})
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid params did not panic")
		}
	}()
	New(Params{P: 0, A: 0, H: 0})
}

func testTopologies() []*Topology {
	return []*Topology{
		New(Balanced(2)),
		New(Balanced(3)),
		New(Params{P: 2, A: 3, H: 2, Arrangement: Palmtree}),
		New(Params{P: 2, A: 4, H: 2, Arrangement: Consecutive}),
		New(Balanced(6)),
	}
}

// Every global link must be reciprocal: following it and following it back
// must return to the origin (the arrangement mapping is an involution).
func TestGlobalLinkReciprocity(t *testing.T) {
	for _, tp := range testTopologies() {
		p := tp.Params()
		for r := 0; r < tp.NumRouters(); r++ {
			for gp := p.A - 1; gp < p.A-1+p.H; gp++ {
				nr, np := tp.GlobalNeighbor(r, gp)
				br, bp := tp.GlobalNeighbor(nr, np)
				if br != r || bp != gp {
					t.Fatalf("%v: global link (%d,%d) -> (%d,%d) -> (%d,%d), not reciprocal",
						p, r, gp, nr, np, br, bp)
				}
				if tp.RouterGroup(nr) == tp.RouterGroup(r) {
					t.Fatalf("%v: global link (%d,%d) stays in group", p, r, gp)
				}
			}
		}
	}
}

// In a canonical Dragonfly there is exactly one global link between every
// pair of distinct groups.
func TestOneLinkPerGroupPair(t *testing.T) {
	for _, tp := range testTopologies() {
		p := tp.Params()
		g := tp.NumGroups()
		seen := make(map[[2]int]int)
		for r := 0; r < p.A; r++ { // group 0 only; arrangement is transitive
			for gp := p.A - 1; gp < p.A-1+p.H; gp++ {
				nr, _ := tp.GlobalNeighbor(tp.RouterID(0, r), gp)
				seen[[2]int{0, tp.RouterGroup(nr)}]++
			}
		}
		if len(seen) != g-1 {
			t.Fatalf("%v: group 0 reaches %d distinct groups, want %d", p, len(seen), g-1)
		}
		for pair, n := range seen {
			if n != 1 {
				t.Fatalf("%v: %d links between groups %v", p, n, pair)
			}
		}
	}
}

func TestGlobalRouterForMatchesNeighbor(t *testing.T) {
	for _, tp := range testTopologies() {
		g := tp.NumGroups()
		for dst := 1; dst < g; dst++ {
			idx, port := tp.GlobalRouterFor(0, dst)
			r := tp.RouterID(0, idx)
			nr, _ := tp.GlobalNeighbor(r, port)
			if tp.RouterGroup(nr) != dst {
				t.Fatalf("%v: GlobalRouterFor(0,%d) = (%d,%d) but link goes to group %d",
					tp.Params(), dst, idx, port, tp.RouterGroup(nr))
			}
			if got := tp.GlobalPortTo(r, dst); got != port {
				t.Fatalf("GlobalPortTo(%d,%d) = %d, want %d", r, dst, got, port)
			}
		}
	}
}

func TestGlobalPortToNonOwner(t *testing.T) {
	tp := New(Balanced(2))
	idx, _ := tp.GlobalRouterFor(0, 1)
	other := (idx + 1) % tp.Params().A
	if got := tp.GlobalPortTo(tp.RouterID(0, other), 1); got != -1 {
		t.Errorf("GlobalPortTo from non-owner = %d, want -1", got)
	}
	if got := tp.GlobalPortTo(tp.RouterID(0, idx), 0); got != -1 {
		t.Errorf("GlobalPortTo to own group = %d, want -1", got)
	}
}

// The paper's ADVc construction requires that under palmtree the groups
// +1..+h are all owned by one router: the last router of the group
// (R11 at full size), and that the reciprocal links from -1..-h all enter
// at router 0.
func TestPalmtreeBottleneckStructure(t *testing.T) {
	for _, h := range []int{2, 3, 6} {
		tp := New(Balanced(h))
		a := tp.Params().A
		if got, _ := tp.GlobalRouterFor(0, 1); got != a-1 {
			t.Fatalf("h=%d: GlobalRouterFor(0, 1) = %d, want %d", h, got, a-1)
		}
		for d := 1; d <= h; d++ {
			idx, _ := tp.GlobalRouterFor(0, d)
			if idx != a-1 {
				t.Errorf("h=%d: link to +%d owned by router %d, want %d", h, d, idx, a-1)
			}
			// Entry point in the destination group for traffic from 0.
			entry, _ := tp.GlobalRouterFor(d, 0)
			if entry != 0 {
				t.Errorf("h=%d: traffic from -%d enters at router %d, want 0", h, d, entry)
			}
		}
	}
}

func TestConsecutiveBottleneckStructure(t *testing.T) {
	tp := New(Params{P: 2, A: 4, H: 2, Arrangement: Consecutive})
	if got, _ := tp.GlobalRouterFor(0, 1); got != 0 {
		t.Fatalf("consecutive: GlobalRouterFor(0, 1) = %d, want 0", got)
	}
}

func TestLocalPortsAreConsistent(t *testing.T) {
	for _, tp := range testTopologies() {
		p := tp.Params()
		for i := 0; i < p.A; i++ {
			r := tp.RouterID(1, i) // use group 1 to exercise non-zero groups
			seen := make(map[int]bool)
			for l := 0; l < p.A-1; l++ {
				n := tp.LocalNeighbor(r, l)
				if tp.RouterGroup(n) != 1 {
					t.Fatalf("local neighbor left the group")
				}
				if n == r {
					t.Fatalf("local port %d of router %d is a self-loop", l, r)
				}
				if seen[n] {
					t.Fatalf("duplicate local neighbor %d", n)
				}
				seen[n] = true
				back := tp.LocalPortTo(r, tp.RouterLocalIndex(n))
				if back != l {
					t.Fatalf("LocalPortTo inverse failed: port %d -> router %d -> port %d", l, n, back)
				}
			}
			if len(seen) != p.A-1 {
				t.Fatalf("router %d reaches %d local neighbors, want %d", r, len(seen), p.A-1)
			}
		}
	}
}

func TestLocalPortToSelfPanics(t *testing.T) {
	tp := New(Balanced(2))
	defer func() {
		if recover() == nil {
			t.Fatal("LocalPortTo(self) did not panic")
		}
	}()
	tp.LocalPortTo(0, 0)
}

func TestNodeMapping(t *testing.T) {
	tp := New(Balanced(2))
	p := tp.Params()
	for n := 0; n < tp.NumNodes(); n++ {
		r := tp.NodeRouter(n)
		if r < 0 || r >= tp.NumRouters() {
			t.Fatalf("node %d maps to router %d out of range", n, r)
		}
		port := tp.NodePort(n)
		if tp.PortClass(port) != InjectionPort {
			t.Fatalf("node %d port %d is not an injection port", n, port)
		}
		if tp.NodeID(r, n%p.P) != n {
			t.Fatalf("NodeID inverse failed for node %d", n)
		}
		if tp.NodeGroup(n) != tp.RouterGroup(r) {
			t.Fatalf("NodeGroup mismatch for node %d", n)
		}
	}
}

func TestPortClassBoundaries(t *testing.T) {
	tp := New(Balanced(6)) // a=12, h=6, p=6: ports 0..10 local, 11..16 global, 17..22 injection
	cases := []struct {
		port int
		want PortClass
	}{
		{0, LocalPort}, {10, LocalPort},
		{11, GlobalPort}, {16, GlobalPort},
		{17, InjectionPort}, {22, InjectionPort},
	}
	for _, c := range cases {
		if got := tp.PortClass(c.port); got != c.want {
			t.Errorf("PortClass(%d) = %v, want %v", c.port, got, c.want)
		}
	}
	if tp.NumPorts() != 23 {
		t.Errorf("NumPorts() = %d, want 23", tp.NumPorts())
	}
}

func TestMinimalPathLength(t *testing.T) {
	tp := New(Balanced(2)) // p=2, a=4, h=2, 9 groups
	p := tp.Params()

	// Same node.
	if l := tp.MinimalPathLength(0, 0); l.Hops() != 0 {
		t.Errorf("self path = %+v, want empty", l)
	}
	// Same router, different node.
	if l := tp.MinimalPathLength(0, 1); l.Hops() != 0 {
		t.Errorf("same-router path = %+v, want empty", l)
	}
	// Same group, different router.
	n2 := tp.NodeID(tp.RouterID(0, 1), 0)
	if l := tp.MinimalPathLength(0, n2); l != (PathLength{Local: 1}) {
		t.Errorf("intra-group path = %+v, want 1 local", l)
	}
	// Inter-group from/to the routers owning the link: exactly 1 global.
	srcIdx, _ := tp.GlobalRouterFor(0, 1)
	dstIdx, _ := tp.GlobalRouterFor(1, 0)
	src := tp.NodeID(tp.RouterID(0, srcIdx), 0)
	dst := tp.NodeID(tp.RouterID(1, dstIdx), 0)
	if l := tp.MinimalPathLength(src, dst); l != (PathLength{Global: 1}) {
		t.Errorf("direct global path = %+v, want 1 global", l)
	}
	// Inter-group worst case: l g l.
	otherSrc := tp.NodeID(tp.RouterID(0, (srcIdx+1)%p.A), 0)
	otherDst := tp.NodeID(tp.RouterID(1, (dstIdx+1)%p.A), 0)
	if l := tp.MinimalPathLength(otherSrc, otherDst); l != (PathLength{Local: 2, Global: 1}) {
		t.Errorf("lgl path = %+v, want 2 local + 1 global", l)
	}
}

// Property: every minimal path has at most 3 hops and exactly one global
// hop when groups differ.
func TestMinimalPathProperty(t *testing.T) {
	tp := New(Balanced(3))
	n := tp.NumNodes()
	f := func(a, b uint32) bool {
		src, dst := int(a)%n, int(b)%n
		l := tp.MinimalPathLength(src, dst)
		if l.Hops() > 3 || l.Local > 2 || l.Global > 1 {
			return false
		}
		sameGroup := tp.NodeGroup(src) == tp.NodeGroup(dst)
		if sameGroup && l.Global != 0 {
			return false
		}
		if !sameGroup && l.Global != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: GroupOffset is the inverse of adding the offset, and the
// offset tables cover each (router, port) pair exactly once.
func TestGroupOffsetProperty(t *testing.T) {
	tp := New(Balanced(3))
	g := tp.NumGroups()
	f := func(a, b uint32) bool {
		src, dst := int(a)%g, int(b)%g
		d := tp.groupOffset(src, dst)
		return (src+d)%g == dst && d >= 0 && d < g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// The tabulated and division-free forms equal their arithmetic definitions
// everywhere: every router, every node, every pair of groups, every global
// port, for h ∈ {2, 3, 6} under both arrangements.
func TestTablesMatchArithmetic(t *testing.T) {
	for _, h := range []int{2, 3, 6} {
		for _, arr := range []Arrangement{Palmtree, Consecutive} {
			params := Balanced(h)
			params.Arrangement = arr
			tp := New(params)
			a, p, g := params.A, params.P, tp.NumGroups()
			for r := 0; r < tp.NumRouters(); r++ {
				if got, want := tp.RouterGroup(r), r/a; got != want {
					t.Fatalf("%v: RouterGroup(%d) = %d, want %d", params, r, got, want)
				}
				if got, want := tp.RouterLocalIndex(r), r%a; got != want {
					t.Fatalf("%v: RouterLocalIndex(%d) = %d, want %d", params, r, got, want)
				}
				for k := 0; k < h; k++ {
					want := (r/a + tp.portOffset[(r%a)*h+k]) % g
					if got := tp.DirectGroup(r, k); got != want {
						t.Fatalf("%v: DirectGroup(%d, %d) = %d, want %d", params, r, k, got, want)
					}
					if nb, _ := tp.GlobalNeighbor(r, a-1+k); nb/a != want {
						t.Fatalf("%v: GlobalNeighbor(%d, %d) lands in group %d, want %d", params, r, a-1+k, nb/a, want)
					}
				}
			}
			for n := 0; n < tp.NumNodes(); n++ {
				if got, want := tp.NodeRouter(n), n/p; got != want {
					t.Fatalf("%v: NodeRouter(%d) = %d, want %d", params, n, got, want)
				}
				if got, want := tp.NodePort(n), a-1+h+n%p; got != want {
					t.Fatalf("%v: NodePort(%d) = %d, want %d", params, n, got, want)
				}
			}
			for src := 0; src < g; src++ {
				for dst := 0; dst < g; dst++ {
					if got, want := tp.groupOffset(src, dst), ((dst-src)%g+g)%g; got != want {
						t.Fatalf("%v: GroupOffset(%d, %d) = %d, want %d", params, src, dst, got, want)
					}
				}
			}
		}
	}
}

func TestDirectGroups(t *testing.T) {
	for _, tp := range testTopologies() {
		p := tp.Params()
		for i := 0; i < p.A; i++ {
			r := tp.RouterID(0, i)
			for k := 0; k < p.H; k++ {
				g := tp.DirectGroup(r, k)
				if port := tp.GlobalPortTo(r, g); port != p.A-1+k {
					t.Fatalf("DirectGroup(%d, %d)=%d but GlobalPortTo gives port %d", r, k, g, port)
				}
			}
		}
	}
}

func TestStringForms(t *testing.T) {
	if Palmtree.String() != "palmtree" || Consecutive.String() != "consecutive" {
		t.Error("arrangement String() wrong")
	}
	if Arrangement(9).String() == "" {
		t.Error("unknown arrangement String() empty")
	}
	for _, c := range []PortClass{LocalPort, GlobalPort, InjectionPort, PortClass(9)} {
		if c.String() == "" {
			t.Errorf("PortClass(%d).String() empty", c)
		}
	}
	if Balanced(2).String() == "" {
		t.Error("Params.String() empty")
	}
}

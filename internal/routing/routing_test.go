package routing

import (
	"testing"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// fakeView is a scriptable RouterView for unit tests.
type fakeView struct {
	id        int
	congested map[int]bool // per port (any VC)
	noAbsorb  map[int]bool // per port
	loads     map[int]int
}

func (v *fakeView) RouterID() int { return v.id }
func (v *fakeView) OutputCongested(port, _ int) bool {
	return v.congested[port]
}
func (v *fakeView) LinkLoad(port int) int { return v.loads[port] }
func (v *fakeView) CanAbsorb(port, _ int) bool {
	return !v.noAbsorb[port]
}

// fakeGroup marks a settable set of saturated global links.
type fakeGroup struct {
	sat map[[2]int]bool
}

func (g *fakeGroup) GlobalSaturated(localIdx, k int) bool { return g.sat[[2]int{localIdx, k}] }

func newEnv(t *topology.Topology) *Env {
	return &Env{Topo: t, Cfg: DefaultConfig(), PacketSize: 8, LocalVCs: 3, GlobalVCs: 2}
}

func view(id int) *fakeView {
	return &fakeView{id: id, congested: map[int]bool{}, noAbsorb: map[int]bool{}, loads: map[int]int{}}
}

func mkPacket(src, dst int) *packet.Packet {
	p := &packet.Packet{Src: int32(src), Dst: int32(dst), Size: 8, IntNode: -1, IntGroup: -1}
	return p
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[globalPolicy]string{rrg: "RRG", crg: "CRG", nrg: "NRG", mm: "MM"} {
		if p.String() != want {
			t.Errorf("%v.String() = %q", p, p.String())
		}
	}
	if globalPolicy(9).String() == "" {
		t.Error("unknown policy String() empty")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.Name() == "" {
			t.Errorf("%q has empty display name", name)
		}
		l, g := m.VCNeeds()
		if l <= 0 || g <= 0 {
			t.Errorf("%q has bad VC needs %d/%d", name, l, g)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestMinimalEjectsAtDestination(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	m := newMinimal()
	dst := 5
	r := topo.NodeRouter(dst)
	p := mkPacket(0, dst)
	req := m.NextHop(env, view(r), p, topology.LocalPort, rng.New(1))
	if req.Port != topo.NodePort(dst) {
		t.Errorf("at destination router: port %d, want ejection %d", req.Port, topo.NodePort(dst))
	}
}

func TestMinimalTakesGlobalWhenOwned(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	m := newMinimal()
	// Source router owning the link to the destination group.
	idx, port := topo.GlobalRouterFor(0, 3)
	r := topo.RouterID(0, idx)
	dst := topo.NodeID(topo.RouterID(3, 0), 0)
	p := mkPacket(topo.NodeID(r, 0), dst)
	req := m.NextHop(env, view(r), p, topology.InjectionPort, rng.New(1))
	if req.Port != port {
		t.Errorf("owner router: port %d, want global %d", req.Port, port)
	}
	if req.VC != 0 {
		t.Errorf("first global hop VC = %d, want 0", req.VC)
	}
}

func TestMinimalLocalTowardExit(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	m := newMinimal()
	idx, _ := topo.GlobalRouterFor(0, 3)
	other := (idx + 1) % topo.Params().A
	r := topo.RouterID(0, other)
	dst := topo.NodeID(topo.RouterID(3, 0), 0)
	p := mkPacket(topo.NodeID(r, 0), dst)
	req := m.NextHop(env, view(r), p, topology.InjectionPort, rng.New(1))
	if want := topo.LocalPortTo(r, idx); req.Port != want {
		t.Errorf("port %d, want local %d toward exit router", req.Port, want)
	}
	if req.VC != 0 {
		t.Errorf("source-group local VC = %d, want 0", req.VC)
	}
}

// Simulate a full minimal walk: the packet must reach the destination in at
// most 3 hops with strictly legal VCs.
func walk(t *testing.T, env *Env, m Mechanism, p *packet.Packet, maxHops int) []int {
	t.Helper()
	topo := env.Topo
	r := topo.NodeRouter(int(p.Src))
	OnArrive(env, r, p, false)
	rnd := rng.New(42)
	var ports []int
	for hop := 0; ; hop++ {
		if hop > maxHops {
			t.Fatalf("packet %v exceeded %d hops (at router %d)", p, maxHops, r)
		}
		req := m.NextHop(env, view(r), p, topology.LocalPort, rnd)
		ports = append(ports, req.Port)
		class := topo.PortClass(req.Port)
		if class == topology.InjectionPort {
			if r != topo.NodeRouter(int(p.Dst)) {
				t.Fatalf("ejected at router %d, want %d", r, topo.NodeRouter(int(p.Dst)))
			}
			return ports
		}
		req.Action.Apply(p)
		entered := false
		switch class {
		case topology.LocalPort:
			p.LocalHops++
			r = topo.LocalNeighbor(r, req.Port)
		case topology.GlobalPort:
			p.GlobalHops++
			r, _ = topo.GlobalNeighbor(r, req.Port)
			entered = true
		}
		OnArrive(env, r, p, entered)
	}
}

func TestMinimalWalksReachDestination(t *testing.T) {
	topo := topology.New(topology.Balanced(3))
	env := newEnv(topo)
	m := newMinimal()
	rnd := rng.New(7)
	for i := 0; i < 300; i++ {
		src := rnd.Intn(topo.NumNodes())
		dst := rnd.Intn(topo.NumNodes())
		if src == dst {
			continue
		}
		p := mkPacket(src, dst)
		walk(t, env, m, p, 3)
		if p.LocalHops > 2 || p.GlobalHops > 1 {
			t.Fatalf("minimal path took %d local + %d global hops", p.LocalHops, p.GlobalHops)
		}
	}
}

func TestObliviousWalksReachDestination(t *testing.T) {
	topo := topology.New(topology.Balanced(3))
	env := newEnv(topo)
	env.LocalVCs, env.GlobalVCs = 4, 2
	rnd := rng.New(11)
	for _, policy := range []globalPolicy{rrg, crg} {
		m := newOblivious(policy)
		for i := 0; i < 300; i++ {
			src := rnd.Intn(topo.NumNodes())
			dst := rnd.Intn(topo.NumNodes())
			if src == dst {
				continue
			}
			p := mkPacket(src, dst)
			m.OnGenerate(env, p, rnd)
			walk(t, env, m, p, 6)
			if p.LocalHops > 4 || p.GlobalHops > 2 {
				t.Fatalf("%v Valiant path: %d local + %d global hops", policy, p.LocalHops, p.GlobalHops)
			}
		}
	}
}

// Obl-CRG must restrict the intermediate group to ones directly connected
// to the source router.
func TestObliviousCRGRestriction(t *testing.T) {
	topo := topology.New(topology.Balanced(3))
	env := newEnv(topo)
	m := newOblivious(crg)
	rnd := rng.New(13)
	src := 0
	srcRouter := topo.NodeRouter(src)
	direct := map[int]bool{}
	for k := 0; k < topo.Params().H; k++ {
		direct[topo.DirectGroup(srcRouter, k)] = true
	}
	for i := 0; i < 500; i++ {
		p := mkPacket(src, topo.NumNodes()-1)
		m.OnGenerate(env, p, rnd)
		if p.Phase != packet.PhaseToNode {
			continue // minimal short-circuit (intermediate == source group)
		}
		if g := topo.NodeGroup(int(p.IntNode)); !direct[g] {
			t.Fatalf("CRG picked intermediate group %d not directly connected", g)
		}
	}
}

func TestObliviousRejectsBadPolicies(t *testing.T) {
	for _, policy := range []globalPolicy{nrg, mm} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewOblivious(%v) did not panic", policy)
				}
			}()
			newOblivious(policy)
		}()
	}
}

// VC ordering property: on random oblivious walks, the sequence of visited
// (class, VC) pairs must respect the total order l0<g0<l1<l2<g1<l3 and stay
// within the configured VC budget.
func TestValiantVCOrderingProperty(t *testing.T) {
	topo := topology.New(topology.Balanced(3))
	env := newEnv(topo)
	env.LocalVCs, env.GlobalVCs = 4, 2
	rank := func(class topology.PortClass, vc int) int {
		// l0=0 g0=1 l1=2 l2=3 g1=4 l3=5
		if class == topology.GlobalPort {
			return []int{1, 4}[vc]
		}
		return []int{0, 2, 3, 5}[vc]
	}
	rnd := rng.New(17)
	m := newOblivious(rrg)
	for i := 0; i < 500; i++ {
		src := rnd.Intn(topo.NumNodes())
		dst := rnd.Intn(topo.NumNodes())
		if src == dst {
			continue
		}
		p := mkPacket(src, dst)
		m.OnGenerate(env, p, rnd)
		r := topo.NodeRouter(src)
		OnArrive(env, r, p, false)
		last := -1
		for hop := 0; hop < 8; hop++ {
			req := m.NextHop(env, view(r), p, topology.LocalPort, rnd)
			class := topo.PortClass(req.Port)
			if class == topology.InjectionPort {
				break
			}
			if class == topology.LocalPort && req.VC >= env.LocalVCs {
				t.Fatalf("local VC %d out of budget", req.VC)
			}
			if class == topology.GlobalPort && req.VC >= env.GlobalVCs {
				t.Fatalf("global VC %d out of budget", req.VC)
			}
			rk := rank(class, req.VC)
			if rk <= last {
				t.Fatalf("VC order violated: rank %d after %d (hop %d, %v)", rk, last, hop, p)
			}
			last = rk
			req.Action.Apply(p)
			entered := false
			switch class {
			case topology.LocalPort:
				p.LocalHops++
				r = topo.LocalNeighbor(r, req.Port)
			case topology.GlobalPort:
				p.GlobalHops++
				r, _ = topo.GlobalNeighbor(r, req.Port)
				entered = true
			}
			OnArrive(env, r, p, entered)
		}
	}
}

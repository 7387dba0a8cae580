package routing

import (
	"testing"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// pbSetup builds a PB environment over a balanced h=2 Dragonfly with a
// scriptable group view for group 0.
func pbSetup() (*topology.Topology, *Env, *fakeGroup) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	env.LocalVCs, env.GlobalVCs = 4, 2
	fg := &fakeGroup{sat: map[[2]int]bool{}}
	env.Group = func(g int) GroupView { return fg }
	return topo, env, fg
}

func TestPiggyBackMinimalWhenUnsaturated(t *testing.T) {
	topo, env, _ := pbSetup()
	pb := newPiggyBack(rrg)
	dst := topo.NodeID(topo.RouterID(3, 0), 0)
	p := mkPacket(0, dst)
	pb.NextHop(env, view(0), p, topology.InjectionPort, rng.New(1))
	if !p.SrcDecided {
		t.Fatal("source decision not taken at injection")
	}
	if p.Phase != packet.PhaseMinimal || p.Misrouted {
		t.Errorf("unsaturated network: packet should go minimal, got %v", p.Phase)
	}
}

func TestPiggyBackValiantWhenMinimalSaturated(t *testing.T) {
	topo, env, fg := pbSetup()
	pb := newPiggyBack(rrg)
	dstGroup := 3
	exitIdx, exitPort := topo.GlobalRouterFor(0, dstGroup)
	fg.sat[[2]int{exitIdx, exitPort - (topo.Params().A - 1)}] = true
	dst := topo.NodeID(topo.RouterID(dstGroup, 0), 0)
	p := mkPacket(0, dst)
	pb.NextHop(env, view(0), p, topology.InjectionPort, rng.New(1))
	if p.Phase != packet.PhaseToNode || !p.Misrouted {
		t.Errorf("saturated minimal link: packet should take Valiant, got %v", p.Phase)
	}
	if g := topo.NodeGroup(int(p.IntNode)); g == 0 || g == dstGroup {
		t.Errorf("Valiant intermediate group %d collides with src/dst", g)
	}
}

// The paper's PB failure mode: when all candidate links are saturated but
// none is flagged (the relative rule at the bottleneck), traffic goes
// minimal.
func TestPiggyBackAllSaturatedGoesMinimal(t *testing.T) {
	topo, env, fg := pbSetup()
	pb := newPiggyBack(crg)
	dstGroup := 3
	exitIdx, exitPort := topo.GlobalRouterFor(0, dstGroup)
	fg.sat[[2]int{exitIdx, exitPort - (topo.Params().A - 1)}] = true
	// Saturate every CRG candidate of the source router too.
	srcIdx := 0
	for k := 0; k < topo.Params().H; k++ {
		fg.sat[[2]int{srcIdx, k}] = true
	}
	dst := topo.NodeID(topo.RouterID(dstGroup, 0), 0)
	p := mkPacket(topo.NodeID(topo.RouterID(0, srcIdx), 0), dst)
	pb.NextHop(env, view(topo.RouterID(0, srcIdx)), p, topology.InjectionPort, rng.New(1))
	if p.Phase != packet.PhaseMinimal || p.Misrouted {
		t.Error("with every candidate saturated PB must fall back to minimal")
	}
}

func TestPiggyBackIntraGroupMinimal(t *testing.T) {
	topo, env, _ := pbSetup()
	pb := newPiggyBack(rrg)
	dst := topo.NodeID(topo.RouterID(0, 2), 0)
	p := mkPacket(0, dst)
	pb.NextHop(env, view(0), p, topology.InjectionPort, rng.New(1))
	if p.Phase != packet.PhaseMinimal {
		t.Error("intra-group traffic must stay minimal")
	}
}

func TestPiggyBackDecidesOnlyOnce(t *testing.T) {
	topo, env, fg := pbSetup()
	pb := newPiggyBack(rrg)
	dstGroup := 3
	dst := topo.NodeID(topo.RouterID(dstGroup, 0), 0)
	p := mkPacket(0, dst)
	pb.NextHop(env, view(0), p, topology.InjectionPort, rng.New(1))
	// Saturating afterwards must not flip the already-taken decision.
	exitIdx, exitPort := topo.GlobalRouterFor(0, dstGroup)
	fg.sat[[2]int{exitIdx, exitPort - (topo.Params().A - 1)}] = true
	pb.NextHop(env, view(0), p, topology.InjectionPort, rng.New(1))
	if p.Phase != packet.PhaseMinimal {
		t.Error("PB re-decided after the source decision")
	}
}

func TestPiggyBackLocalQueueTrigger(t *testing.T) {
	topo, env, _ := pbSetup()
	pb := newPiggyBack(rrg)
	dstGroup := 3
	exitIdx, _ := topo.GlobalRouterFor(0, dstGroup)
	srcIdx := (exitIdx + 1) % topo.Params().A
	r := topo.RouterID(0, srcIdx)
	dst := topo.NodeID(topo.RouterID(dstGroup, 0), 0)
	// A local queue beyond T=5 packets (Table I) triggers the Valiant
	// consideration even without the global saturation bit; one of 5 does not.
	for _, tc := range []struct {
		phits int
		want  packet.Phase
	}{{5 * env.PacketSize, packet.PhaseMinimal}, {5*env.PacketSize + 1, packet.PhaseToNode}} {
		v := view(r)
		v.loads[topo.LocalPortTo(r, exitIdx)] = tc.phits
		p := mkPacket(topo.NodeID(r, 0), dst)
		pb.NextHop(env, v, p, topology.InjectionPort, rng.New(1))
		if p.Phase != tc.want {
			t.Errorf("local queue of %d phits: phase %v, want %v", tc.phits, p.Phase, tc.want)
		}
	}
}

func TestPiggyBackRejectsBadPolicies(t *testing.T) {
	for _, policy := range []globalPolicy{nrg, mm} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPiggyBack(%v) did not panic", policy)
				}
			}()
			newPiggyBack(policy)
		}()
	}
}

// ---- In-transit adaptive ----

// uncongested network: in-transit always requests the minimal port.
func TestInTransitMinimalWhenUncongested(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	for _, policy := range []globalPolicy{rrg, crg, mm} {
		m := newInTransit(policy)
		dst := topo.NodeID(topo.RouterID(3, 0), 0)
		p := mkPacket(0, dst)
		req := m.NextHop(env, view(0), p, topology.InjectionPort, rng.New(1))
		min := newMinimal().NextHop(env, view(0), p, topology.InjectionPort, rng.New(1))
		if req.Port != min.Port {
			t.Errorf("%v requested %d, want minimal %d", policy, req.Port, min.Port)
		}
		if req.Action != (packet.Action{}) {
			t.Errorf("%v attached an action on an uncongested network", policy)
		}
	}
}

// When the minimal port is congested at the source router, CRG diverts via
// one of the router's own global ports.
func TestInTransitCRGMisroutesOwnGlobals(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	m := newInTransit(crg)
	a := topo.Params().A
	idx, minPort := topo.GlobalRouterFor(0, 1)
	r := topo.RouterID(0, idx)
	v := view(r)
	v.congested[minPort] = true
	dst := topo.NodeID(topo.RouterID(1, 0), 0)
	p := mkPacket(topo.NodeID(r, 0), dst)
	req := m.NextHop(env, v, p, topology.InjectionPort, rng.New(3))
	if topo.PortClass(req.Port) != topology.GlobalPort || req.Port == minPort {
		t.Fatalf("CRG diverted via port %d, want another own global", req.Port)
	}
	if req.Action.Kind != packet.ActionMisrouteToGroup {
		t.Fatal("CRG misroute has no commit action")
	}
	if g := req.Action.Group; g == 0 || g == 1 {
		t.Fatalf("bad intermediate group %d", req.Action.Group)
	}
	_ = a
}

// At the ADVc bottleneck router every CRG candidate overlaps the congested
// minimal links — the Section III overlap — so the packet must stay
// minimal.
func TestInTransitCRGBottleneckOverlap(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	m := newInTransit(crg)
	a := topo.Params().A
	idx, minPort := topo.GlobalRouterFor(0, 1)
	r := topo.RouterID(0, idx)
	v := view(r)
	for k := 0; k < topo.Params().H; k++ {
		v.congested[a-1+k] = true // all own globals congested
	}
	dst := topo.NodeID(topo.RouterID(1, 0), 0)
	p := mkPacket(topo.NodeID(r, 0), dst)
	req := m.NextHop(env, v, p, topology.InjectionPort, rng.New(3))
	if req.Port != minPort || req.Action != (packet.Action{}) {
		t.Fatalf("bottleneck overlap: want minimal wait, got port %d action %v", req.Port, req.Action.Kind)
	}
}

// MM uses CRG at the injection router and NRG afterwards.
func TestInTransitMMPolicySwitch(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	m := newInTransit(mm)
	idx, minPort := topo.GlobalRouterFor(0, 1)
	r := topo.RouterID(0, idx)
	v := view(r)
	v.congested[minPort] = true
	dst := topo.NodeID(topo.RouterID(1, 0), 0)

	// At injection: CRG — a global port.
	p := mkPacket(topo.NodeID(r, 0), dst)
	req := m.NextHop(env, v, p, topology.InjectionPort, rng.New(5))
	if topo.PortClass(req.Port) != topology.GlobalPort {
		t.Errorf("MM at injection should behave as CRG (global port), got %d", req.Port)
	}

	// In transit with a local hop taken: NRG would need a local port,
	// which the VC budget forbids — the packet must wait on minimal.
	p2 := mkPacket(topo.NodeID(topo.RouterID(0, (idx+1)%topo.Params().A), 0), dst)
	p2.LocalHops = 1 // arrived at r after its source-group local hop
	req2 := m.NextHop(env, v, p2, topology.LocalPort, rng.New(5))
	if req2.Port != minPort || req2.Action != (packet.Action{}) {
		t.Errorf("MM in transit: NRG local detour is VC-inadmissible, want minimal wait; got port %d", req2.Port)
	}
}

// Misroutes must respect the absorption condition.
func TestInTransitRespectsAbsorption(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	m := newInTransit(crg)
	a := topo.Params().A
	idx, minPort := topo.GlobalRouterFor(0, 1)
	r := topo.RouterID(0, idx)
	v := view(r)
	v.congested[minPort] = true
	for k := 0; k < topo.Params().H; k++ {
		v.noAbsorb[a-1+k] = true // nothing can absorb a packet
	}
	dst := topo.NodeID(topo.RouterID(1, 0), 0)
	p := mkPacket(topo.NodeID(r, 0), dst)
	req := m.NextHop(env, v, p, topology.InjectionPort, rng.New(7))
	if req.Port != minPort {
		t.Errorf("with no absorption capacity the packet must wait on minimal, got %d", req.Port)
	}
}

// A packet that already misrouted globally must not misroute again.
func TestInTransitMisroutesOnce(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	m := newInTransit(crg)
	idx, minPort := topo.GlobalRouterFor(0, 1)
	r := topo.RouterID(0, idx)
	v := view(r)
	v.congested[minPort] = true
	dst := topo.NodeID(topo.RouterID(1, 0), 0)
	p := mkPacket(topo.NodeID(r, 0), dst)
	p.Misrouted = true
	req := m.NextHop(env, v, p, topology.LocalPort, rng.New(9))
	if req.Port != minPort {
		t.Errorf("already-misrouted packet diverted again via %d", req.Port)
	}
}

// Local misrouting in the destination group: congested minimal local hop,
// uncongested alternative.
func TestInTransitLocalMisroute(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	m := newInTransit(mm)
	// Packet in its destination group (group 1), at the entry router,
	// with the local port to the destination router congested.
	entryIdx, _ := topo.GlobalRouterFor(1, 0)
	r := topo.RouterID(1, entryIdx)
	dstIdx := (entryIdx + 1) % topo.Params().A
	dst := topo.NodeID(topo.RouterID(1, dstIdx), 0)
	p := mkPacket(0, dst) // src in group 0
	p.LocalHops, p.GlobalHops = 1, 1
	minPort := topo.LocalPortTo(r, dstIdx)
	v := view(r)
	v.congested[minPort] = true
	req := m.NextHop(env, v, p, topology.GlobalPort, rng.New(11))
	if topo.PortClass(req.Port) != topology.LocalPort || req.Port == minPort {
		t.Fatalf("expected a local misroute, got port %d", req.Port)
	}
	if req.Action.Kind != packet.ActionLocalMisroute {
		t.Fatal("local misroute missing its action")
	}
	// After the misroute the flag must forbid a second one.
	req.Action.Apply(p)
	req2 := m.NextHop(env, v, p, topology.LocalPort, rng.New(11))
	if req2.Port != minPort {
		t.Errorf("locally-misrouted packet diverted again via %d", req2.Port)
	}
}

func TestInTransitLocalMisrouteDisabled(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	env.Cfg.LocalMisroute = false
	m := newInTransit(mm)
	entryIdx, _ := topo.GlobalRouterFor(1, 0)
	r := topo.RouterID(1, entryIdx)
	dstIdx := (entryIdx + 1) % topo.Params().A
	dst := topo.NodeID(topo.RouterID(1, dstIdx), 0)
	p := mkPacket(0, dst)
	p.LocalHops, p.GlobalHops = 1, 1
	minPort := topo.LocalPortTo(r, dstIdx)
	v := view(r)
	v.congested[minPort] = true
	req := m.NextHop(env, v, p, topology.GlobalPort, rng.New(11))
	if req.Port != minPort {
		t.Errorf("with OLM disabled the packet must wait on minimal, got %d", req.Port)
	}
}

// In-transit walks deliver under arbitrary congestion bits (adversarially
// random fake views), exercising phase transitions.
func TestInTransitWalksReachDestination(t *testing.T) {
	topo := topology.New(topology.Balanced(3))
	env := newEnv(topo)
	rnd := rng.New(13)
	for _, policy := range []globalPolicy{rrg, crg, mm, nrg} {
		m := newInTransit(policy)
		for i := 0; i < 200; i++ {
			src := rnd.Intn(topo.NumNodes())
			dst := rnd.Intn(topo.NumNodes())
			if src == dst {
				continue
			}
			p := mkPacket(src, dst)
			r := topo.NodeRouter(src)
			OnArrive(env, r, p, false)
			inClass := topology.InjectionPort
			for hop := 0; ; hop++ {
				if hop > 8 {
					t.Fatalf("%v: packet %v looped (router %d)", policy, p, r)
				}
				v := view(r)
				// Randomly congest ports to provoke misrouting.
				for port := 0; port < topo.NumPorts(); port++ {
					v.congested[port] = rnd.Intn(3) == 0
				}
				req := m.NextHop(env, v, p, inClass, rnd)
				class := topo.PortClass(req.Port)
				if class == topology.InjectionPort {
					if r != topo.NodeRouter(int(p.Dst)) {
						t.Fatalf("%v: ejected at %d, want %d", policy, r, topo.NodeRouter(int(p.Dst)))
					}
					break
				}
				if class == topology.LocalPort && req.VC >= 3 {
					t.Fatalf("%v: local VC %d out of budget", policy, req.VC)
				}
				if class == topology.GlobalPort && req.VC >= 2 {
					t.Fatalf("%v: global VC %d out of budget", policy, req.VC)
				}
				req.Action.Apply(p)
				entered := false
				switch class {
				case topology.LocalPort:
					p.LocalHops++
					r = topo.LocalNeighbor(r, req.Port)
					inClass = topology.LocalPort
				case topology.GlobalPort:
					p.GlobalHops++
					r, _ = topo.GlobalNeighbor(r, req.Port)
					entered = true
					inClass = topology.GlobalPort
				}
				OnArrive(env, r, p, entered)
			}
		}
	}
}

func TestInTransitRejectsBadPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewInTransit(bad) did not panic")
		}
	}()
	newInTransit(globalPolicy(9))
}

func TestOnArriveResetsLocalMisroute(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	p := mkPacket(0, topo.NumNodes()-1)
	p.LocalMisrouted = true
	OnArrive(env, 5, p, false)
	if !p.LocalMisrouted {
		t.Error("local hop must not reset the local-misroute flag")
	}
	OnArrive(env, 5, p, true)
	if p.LocalMisrouted {
		t.Error("entering a new group must reset the local-misroute flag")
	}
}

func TestOnArrivePhaseFlips(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	env := newEnv(topo)
	// ToGroup flips on entering the intermediate group.
	p := mkPacket(0, topo.NumNodes()-1)
	p.Phase = packet.PhaseToGroup
	p.IntGroup = 2
	OnArrive(env, topo.RouterID(2, 1), p, true)
	if p.Phase != packet.PhaseMinimal {
		t.Error("ToGroup did not flip in the intermediate group")
	}
	// ToNode flips at the intermediate node's router.
	p2 := mkPacket(0, topo.NumNodes()-1)
	p2.Phase = packet.PhaseToNode
	p2.IntNode = int32(topo.NodeID(topo.RouterID(2, 1), 0))
	OnArrive(env, topo.RouterID(2, 1), p2, true)
	if p2.Phase != packet.PhaseMinimal {
		t.Error("ToNode did not flip at the intermediate router")
	}
	// No flip elsewhere.
	p3 := mkPacket(0, topo.NumNodes()-1)
	p3.Phase = packet.PhaseToGroup
	p3.IntGroup = 2
	OnArrive(env, topo.RouterID(3, 0), p3, true)
	if p3.Phase != packet.PhaseToGroup {
		t.Error("phase flipped in the wrong group")
	}
}

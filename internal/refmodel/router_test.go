package refmodel

import (
	"testing"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/router"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// testNet wires a complete network of routers directly (the same wiring the
// sim package performs), so router behaviour can be unit-tested without the
// engine.
type testNet struct {
	topo    *topology.Topology
	cfg     router.Config
	routers []*Router
	env     routing.Env
}

// tableI is Table I's link latencies, 10 local and 100 global cycles.
var tableI = topology.UniformLatency{Local: 10, Global: 100}

func buildNet(t *testing.T, params topology.Params, mechanism string, arb router.Arbitration) *testNet {
	t.Helper()
	mech, err := routing.ByName(mechanism)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.New(params)
	cfg := router.DefaultConfig()
	cfg.Arbitration = arb
	lvc, gvc := mech.VCNeeds()
	cfg.LocalVCs, cfg.GlobalVCs = lvc, gvc
	n := &testNet{topo: topo, cfg: cfg}
	n.env = routing.Env{Topo: topo, Cfg: routing.DefaultConfig(), PacketSize: cfg.PacketSize, LocalVCs: lvc, GlobalVCs: gvc}
	root := rng.New(99)
	n.routers = make([]*Router, topo.NumRouters())
	for r := range n.routers {
		n.routers[r] = New(r, topo, &n.cfg, mech, &n.env, root.Split(), nil)
		n.routers[r].SetMeasuring(true)
	}
	p := params
	for r := 0; r < topo.NumRouters(); r++ {
		for l := 0; l < p.A-1; l++ {
			link := NewLink(tableI.Local, cfg.SerialCycles())
			nb := topo.LocalNeighbor(r, l)
			n.routers[r].ConnectOut(l, link)
			n.routers[nb].ConnectIn(topo.LocalPortTo(nb, topo.RouterLocalIndex(r)), link)
		}
		for gp := p.A - 1; gp < p.A-1+p.H; gp++ {
			link := NewLink(tableI.Global, cfg.SerialCycles())
			nb, inPort := topo.GlobalNeighbor(r, gp)
			n.routers[r].ConnectOut(gp, link)
			n.routers[nb].ConnectIn(inPort, link)
		}
	}
	return n
}

func (n *testNet) step(now int64) {
	for _, r := range n.routers {
		r.Step(now)
	}
}

// inject creates a packet at time now and places it in the source node's
// injection queue.
func (n *testNet) inject(now int64, id uint64, src, dst int) *packet.Packet {
	p := &packet.Packet{}
	p.Reset()
	p.ID = id
	p.Src, p.Dst = int32(src), int32(dst)
	p.Size = int16(n.cfg.PacketSize)
	p.GenTime = now
	min := n.topo.MinimalPathLength(src, dst)
	p.MinLocal, p.MinGlobal = uint8(min.Local), uint8(min.Global)
	p.MinLinkLat = int64(min.Local)*int64(tableI.Local) + int64(min.Global)*int64(tableI.Global)
	n.routers[n.topo.NodeRouter(src)].EnqueueInjection(now, p)
	return p
}

// run steps until the predicate fires or maxCycles elapse.
func (n *testNet) run(t *testing.T, maxCycles int64, donefn func() bool) int64 {
	t.Helper()
	for now := int64(0); now < maxCycles; now++ {
		n.step(now)
		if donefn() {
			return now
		}
	}
	t.Fatalf("condition not reached within %d cycles", maxCycles)
	return -1
}

func collectDeliveries(n *testNet) *[]*packet.Packet {
	out := &[]*packet.Packet{}
	for _, r := range n.routers {
		r.SetDeliverHook(func(p *packet.Packet) {
			cp := *p
			*out = append(*out, &cp)
		})
	}
	return out
}

// Zero-load latency must match the analytic path cost exactly:
// (hops+1)*(pipeline+crossbar+serial) + sum of link latencies.
func TestZeroLoadLatencyMatchesAnalytic(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	cases := []struct{ src, dst int }{
		{0, 1},                                   // same router
		{0, topo.NodeID(topo.RouterID(0, 2), 0)}, // 1 local hop
		{0, topo.NodeID(topo.RouterID(4, 0), 0)}, // inter-group
		{0, topo.NodeID(topo.RouterID(8, 3), 1)}, // inter-group, other corner
	}
	for i, c := range cases {
		// A fresh network per case: the engine clock always starts at 0.
		n := buildNet(t, topology.Balanced(2), "MIN", router.RoundRobin)
		delivered := collectDeliveries(n)
		cfg := n.cfg
		perRouter := int64(cfg.PipelineCycles + cfg.CrossbarCycles() + cfg.SerialCycles())
		pkt := n.inject(0, uint64(i), c.src, c.dst)
		n.run(t, 2000, func() bool { return len(*delivered) == 1 })
		got := (*delivered)[0]
		if got.ID != pkt.ID {
			t.Fatalf("wrong packet delivered")
		}
		min := n.topo.MinimalPathLength(c.src, c.dst)
		want := int64(min.Hops()+1)*perRouter +
			int64(min.Local)*int64(tableI.Local) +
			int64(min.Global)*int64(tableI.Global)
		// The first injection faces no contention, so the latency must
		// be exactly the zero-load path cost.
		if got.TotalLatency() != want {
			t.Errorf("case %d: latency %d, want %d (path %+v)", i, got.TotalLatency(), want, min)
		}
		if got.WaitInj+got.WaitLocal+got.WaitGlobal != 0 {
			t.Errorf("case %d: zero-load packet accumulated waits %d/%d/%d",
				i, got.WaitInj, got.WaitLocal, got.WaitGlobal)
		}
	}
}

// The latency identity: total = base + misroute + all waits, exactly, for
// every delivered packet — even under heavy congestion and misrouting.
func TestLatencyIdentity(t *testing.T) {
	n := buildNet(t, topology.Balanced(2), "In-Trns-MM", router.TransitOverInjection)
	delivered := collectDeliveries(n)
	cfg := n.cfg
	perRouter := int64(cfg.PipelineCycles + cfg.CrossbarCycles() + cfg.SerialCycles())
	cost := func(l, g int) int64 {
		return int64(l+g+1)*perRouter + int64(l)*int64(tableI.Local) + int64(g)*int64(tableI.Global)
	}

	// Saturating burst: every node sends to the consecutive groups.
	r := rng.New(5)
	id := uint64(0)
	for now := int64(0); now < 600; now++ {
		for src := 0; src < n.topo.NumNodes(); src++ {
			if r.Float64() < 0.05 {
				g := (n.topo.NodeGroup(src) + 1 + r.Intn(2)) % n.topo.NumGroups()
				dst := g*8 + r.Intn(8)
				id++
				n.inject(now, id, src, dst)
			}
		}
		n.step(now)
	}
	for now := int64(600); now < 5000; now++ {
		n.step(now)
	}
	if len(*delivered) < 100 {
		t.Fatalf("only %d deliveries; test needs congestion", len(*delivered))
	}
	for _, p := range *delivered {
		base := cost(int(p.MinLocal), int(p.MinGlobal))
		misroute := cost(int(p.LocalHops), int(p.GlobalHops)) - base
		sum := base + misroute + p.WaitInj + p.WaitLocal + p.WaitGlobal
		if sum != p.TotalLatency() {
			t.Fatalf("identity broken for %v: base %d + misroute %d + waits %d/%d/%d = %d != total %d",
				p, base, misroute, p.WaitInj, p.WaitLocal, p.WaitGlobal, sum, p.TotalLatency())
		}
	}
}

// Packet conservation: generated = delivered + in flight, at any cycle.
func TestPacketConservation(t *testing.T) {
	n := buildNet(t, topology.Balanced(2), "Obl-RRG", router.RoundRobin)
	deliveredCount := 0
	for _, rt := range n.routers {
		rt.SetDeliverHook(func(*packet.Packet) { deliveredCount++ })
	}
	r := rng.New(6)
	injected := 0
	var id uint64
	for now := int64(0); now < 3000; now++ {
		if now < 1500 {
			for src := 0; src < n.topo.NumNodes(); src += 3 {
				if r.Float64() < 0.03 {
					dst := r.Intn(n.topo.NumNodes())
					if dst == src {
						continue
					}
					id++
					n.inject(now, id, src, dst)
					injected++
				}
			}
		}
		n.step(now)
		if now%500 == 499 {
			inFlight := 0
			for _, rt := range n.routers {
				inFlight += rt.InFlight()
			}
			// Links are owned pairwise; count them via snapshots of
			// the test's own wiring is awkward, so use the identity
			// only after full drain below.
			_ = inFlight
		}
	}
	// After drain everything must be delivered.
	inFlight := 0
	for _, rt := range n.routers {
		inFlight += rt.InFlight()
	}
	if inFlight != 0 {
		t.Fatalf("%d packets still buffered after drain", inFlight)
	}
	if deliveredCount != injected {
		t.Fatalf("delivered %d != injected %d", deliveredCount, injected)
	}
}

// After a full drain every credit must be back at its initial value —
// otherwise the credit protocol leaks.
func TestCreditRestoration(t *testing.T) {
	n := buildNet(t, topology.Balanced(2), "MIN", router.RoundRobin)
	r := rng.New(7)
	var id uint64
	for now := int64(0); now < 800; now++ {
		if now < 400 {
			for src := 0; src < n.topo.NumNodes(); src += 2 {
				if r.Float64() < 0.1 {
					dst := r.Intn(n.topo.NumNodes())
					if dst == src {
						continue
					}
					id++
					n.inject(now, id, src, dst)
				}
			}
		}
		n.step(now)
	}
	for now := int64(800); now < 4000; now++ {
		n.step(now)
	}
	for ri, rt := range n.routers {
		s := rt.Snapshot()
		if s.CreditsLocal != 0 || s.CreditsGlobal != 0 {
			t.Fatalf("router %d: credits leaked: %+v", ri, s)
		}
		if s.InputLocal+s.InputGlobal+s.InputInjection+s.OutputLocal+s.OutputGlobal+s.OutputEjection != 0 {
			t.Fatalf("router %d: buffers not drained: %+v", ri, s)
		}
	}
}

// Injection backlog accounting and the source-queue bound.
func TestInjectionBacklog(t *testing.T) {
	n := buildNet(t, topology.Balanced(2), "MIN", router.RoundRobin)
	rt := n.routers[0]
	if got := rt.InjectionBacklog(0); got != 0 {
		t.Fatalf("fresh backlog = %d", got)
	}
	for i := 0; i < 5; i++ {
		n.inject(0, uint64(i), 0, 9)
	}
	if got := rt.InjectionBacklog(0); got != 5 {
		t.Fatalf("backlog = %d, want 5", got)
	}
	if got := rt.InjectionBacklog(1); got != 0 {
		t.Fatalf("other node's backlog = %d, want 0", got)
	}
}

func TestBackloggedStat(t *testing.T) {
	n := buildNet(t, topology.Balanced(2), "MIN", router.RoundRobin)
	rt := n.routers[0]
	rt.NoteBacklogged(0)
	rt.NoteBacklogged(0)
	if got := rt.Stats().Backlogged; got != 2 {
		t.Fatalf("Backlogged = %d, want 2", got)
	}
	rt.SetMeasuring(false)
	rt.NoteBacklogged(0)
	if got := rt.Stats().Backlogged; got != 2 {
		t.Fatalf("Backlogged counted outside measurement: %d", got)
	}
}

// Transit-over-injection: a continuous stream of transit packets through a
// router must starve that router's own injection while round-robin must
// not.
func TestTransitPriorityStarvesInjection(t *testing.T) {
	for _, tc := range []struct {
		arb    router.Arbitration
		starve bool
	}{
		{router.TransitOverInjection, true},
		{router.RoundRobin, false},
	} {
		n := buildNet(t, topology.Balanced(2), "MIN", tc.arb)
		topo := n.topo
		// Exit router of group 0 towards group 1.
		exitIdx, _ := topo.GlobalRouterFor(0, 1)
		exit := topo.RouterID(0, exitIdx)
		dstGroup := 1
		var id uint64
		// Other routers of group 0 flood traffic through the exit
		// router; the exit router's own nodes inject the same flow.
		for now := int64(0); now < 4000; now++ {
			if now%4 == 0 { // beyond the global link's capacity
				for i := 0; i < topo.Params().A; i++ {
					if i == exitIdx {
						continue
					}
					src := topo.NodeID(topo.RouterID(0, i), 0)
					id++
					n.inject(now, id, src, topo.NodeID(topo.RouterID(dstGroup, 0), 0))
				}
			}
			if now%8 == 0 {
				src := topo.NodeID(exit, 0)
				id++
				n.inject(now, id, src, topo.NodeID(topo.RouterID(dstGroup, 1), 0))
			}
			n.step(now)
		}
		exitInj := n.routers[exit].Stats().Injected
		if tc.starve && exitInj > 40 {
			t.Errorf("%v: exit router injected %d packets, expected starvation", tc.arb, exitInj)
		}
		if !tc.starve && exitInj < 100 {
			t.Errorf("%v: exit router injected only %d packets, expected a fair share", tc.arb, exitInj)
		}
	}
}

// Age-based arbitration must also protect the bottleneck injection: old
// packets win over young transit.
func TestAgeArbitrationProtectsInjection(t *testing.T) {
	n := buildNet(t, topology.Balanced(2), "MIN", router.AgeBased)
	topo := n.topo
	exitIdx, _ := topo.GlobalRouterFor(0, 1)
	exit := topo.RouterID(0, exitIdx)
	var id uint64
	for now := int64(0); now < 4000; now++ {
		if now%4 == 0 {
			for i := 0; i < topo.Params().A; i++ {
				if i == exitIdx {
					continue
				}
				id++
				n.inject(now, id, topo.NodeID(topo.RouterID(0, i), 0), topo.NodeID(topo.RouterID(1, 0), 0))
			}
		}
		if now%8 == 0 {
			id++
			n.inject(now, id, topo.NodeID(exit, 0), topo.NodeID(topo.RouterID(1, 1), 0))
		}
		n.step(now)
	}
	// Age-based service is demand-proportional: the exit router offers
	// 1/8 pkt/cycle of the ~0.875 pkt/cycle total demand on a 1/8
	// pkt/cycle link, i.e. ~70 packets over 4000 cycles — far above the
	// near-total starvation transit priority causes in the same scenario.
	if inj := n.routers[exit].Stats().Injected; inj < 50 {
		t.Errorf("age arbitration: exit router injected only %d packets", inj)
	}
}

// Stats gating: nothing is recorded while measuring is off.
func TestMeasurementGating(t *testing.T) {
	n := buildNet(t, topology.Balanced(2), "MIN", router.RoundRobin)
	for _, rt := range n.routers {
		rt.SetMeasuring(false)
	}
	delivered := collectDeliveries(n)
	n.inject(0, 1, 0, n.topo.NumNodes()-1)
	n.run(t, 2000, func() bool { return len(*delivered) == 1 })
	for ri, rt := range n.routers {
		s := rt.Stats()
		if s.Injected != 0 || s.Delivered != 0 || s.LatencySum != 0 {
			t.Fatalf("router %d recorded stats while not measuring: %+v", ri, s)
		}
	}
}

// Buffer occupancy invariants under randomized traffic: no negative
// occupancy, no overflow (the router panics internally on protocol
// violations, so survival is the assertion).
func TestRandomizedStress(t *testing.T) {
	mechs := []string{
		"MIN",
		"Obl-CRG",
		"In-Trns-RRG",
	}
	for _, mech := range mechs {
		for _, arb := range []router.Arbitration{router.RoundRobin, router.TransitOverInjection, router.AgeBased} {
			n := buildNet(t, topology.Balanced(2), mech, arb)
			r := rng.New(8)
			var id uint64
			for now := int64(0); now < 1500; now++ {
				for src := 0; src < n.topo.NumNodes(); src += 1 {
					if r.Float64() < 0.06 {
						dst := r.Intn(n.topo.NumNodes())
						if dst == src {
							continue
						}
						id++
						n.inject(now, id, src, dst)
					}
				}
				n.step(now)
			}
		}
	}
}

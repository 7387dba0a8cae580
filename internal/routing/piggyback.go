package routing

import (
	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// piggyBack is source-based adaptive routing (Jiang et al., ISCA 2009).
// At injection — and only then — the source router chooses between the
// minimal path and a Valiant path, using the per-group broadcast of global
// link saturation bits (an explicit-congestion-notification style exchange).
//
// Saturation follows the paper's description (Section II-C and Table I):
//
//   - a global link is saturated when its load exceeds the mean load of
//     the same router's global links by T=3 packets (a relative criterion —
//     which is exactly why PB fails under ADVc: at the bottleneck router
//     all links carry the same high load, so none ever stands out);
//   - a local queue is saturated when it holds more than T=5 packets, a
//     threshold the 32-phit local buffers can never reach — the coarse
//     "granularity" the paper blames for excessive minimal traffic.
//
// The Valiant intermediate node is drawn per the RRG or CRG policy
// ("Src-RRG" and "Src-CRG" in the figures).
type piggyBack struct {
	policy globalPolicy
}

// newPiggyBack returns PB source-adaptive routing with the given
// nonminimal-path policy (RRG or CRG).
func newPiggyBack(policy globalPolicy) *piggyBack {
	if policy != rrg && policy != crg {
		panic("routing: PiggyBack supports RRG and CRG only")
	}
	return &piggyBack{policy: policy}
}

// Name implements Mechanism.
func (pb *piggyBack) Name() string { return "Src-" + pb.policy.String() }

// VCNeeds implements Mechanism: same node-level Valiant paths as oblivious
// routing.
func (pb *piggyBack) VCNeeds() (int, int) { return 4, 2 }

// OnGenerate implements Mechanism; the source decision is deferred to the
// first NextHop at the injection router, where the congestion state lives.
func (pb *piggyBack) OnGenerate(*Env, *packet.Packet, *rng.Source) {}

// NextHop implements Mechanism.
func (pb *piggyBack) NextHop(env *Env, rv RouterView, p *packet.Packet, inClass topology.PortClass, rnd *rng.Source) Request {
	if !p.SrcDecided && inClass == topology.InjectionPort {
		pb.decide(env, rv, p, rnd)
	}
	port := minimalPort(env, rv.RouterID(), p)
	return Request{Port: port, VC: valiantVC(env, rv.RouterID(), port, p)}
}

// decide performs the one-time source decision between MIN and VAL.
func (pb *piggyBack) decide(env *Env, rv RouterView, p *packet.Packet, rnd *rng.Source) {
	p.SrcDecided = true
	t := env.Topo
	r := rv.RouterID()
	srcGroup := t.RouterGroup(r)
	dstGroup := t.NodeGroup(int(p.Dst))
	if dstGroup == srcGroup {
		return // intra-group traffic goes minimal
	}
	group := env.Group(srcGroup)

	// Saturation of the minimal route's first global link (group-shared
	// bit) and, when the link hangs off another router, of the local
	// queue leading to it.
	exitIdx, exitPort := t.GlobalRouterFor(srcGroup, dstGroup)
	minSat := group.GlobalSaturated(exitIdx, exitPort-(t.Params().A-1))
	if !minSat && exitIdx != t.RouterLocalIndex(r) {
		localPort := t.LocalPortTo(r, exitIdx)
		minSat = rv.LinkLoad(localPort) > pbLocalPkts*env.PacketSize
	}
	if !minSat {
		return // minimal path looks fine: route MIN
	}

	// Try a few Valiant candidates whose first global link is not
	// saturated; if none is found the packet goes minimally after all.
	for try := 0; try < misrouteTries; try++ {
		var g int
		switch pb.policy {
		case crg:
			k := rnd.Intn(t.Params().H)
			g = t.DirectGroup(r, k)
			if g == dstGroup || g == srcGroup {
				continue
			}
			if group.GlobalSaturated(t.RouterLocalIndex(r), k) {
				continue
			}
		default: // RRG
			g = randomOtherGroup(t, rnd, srcGroup, dstGroup)
			idx, port := t.GlobalRouterFor(srcGroup, g)
			if group.GlobalSaturated(idx, port-(t.Params().A-1)) {
				continue
			}
		}
		p.IntNode = randomNodeInGroup(t, g, rnd)
		p.Phase = packet.PhaseToNode
		p.Misrouted = true
		OnArrive(env, r, p, false)
		return
	}
}

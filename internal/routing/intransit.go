package routing

import (
	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// inTransit is in-transit adaptive routing in the style of PAR/OLM
// (Jiang et al. 2009; García et al. 2012/2013): packets may switch between
// the minimal path and a nonminimal path at injection and along the route,
// based on the occupancy of the candidate output ports — no indirect
// congestion estimate is needed.
//
//   - Global misrouting (diverting to an intermediate group) is allowed
//     while the packet is still in its source group and has not misrouted
//     yet, either at the injection router or after the first local hop.
//     The intermediate group is picked by the configured global misrouting
//     policy (RRG, CRG, or MM = CRG at injection + NRG in transit).
//   - Local misrouting (an extra hop inside the intermediate or destination
//     group) is opportunistic: it is only granted when the whole packet can
//     be absorbed downstream immediately, the OLM condition that keeps the
//     escape (minimal) route deadlock-free.
type inTransit struct {
	policy globalPolicy
}

// newInTransit returns in-transit adaptive routing under the given global
// misrouting policy (RRG, CRG or MM).
func newInTransit(policy globalPolicy) *inTransit {
	if policy != rrg && policy != crg && policy != mm && policy != nrg {
		panic("routing: unknown in-transit policy")
	}
	return &inTransit{policy: policy}
}

// Name implements Mechanism.
func (it *inTransit) Name() string { return "In-Trns-" + it.policy.String() }

// VCNeeds implements Mechanism: the segment scheme needs three local and
// two global VCs (Table I).
func (it *inTransit) VCNeeds() (int, int) { return 3, 2 }

// OnGenerate implements Mechanism; all decisions are taken in transit.
func (*inTransit) OnGenerate(*Env, *packet.Packet, *rng.Source) {}

// NextHop implements Mechanism.
func (it *inTransit) NextHop(env *Env, rv RouterView, p *packet.Packet, inClass topology.PortClass, rnd *rng.Source) Request {
	t := env.Topo
	r := rv.RouterID()
	minPort := minimalPort(env, r, p)
	minReq := Request{Port: minPort, VC: segmentVC(env, r, minPort, p)}
	if t.PortClass(minPort) == topology.InjectionPort {
		return minReq // ejection: nothing to decide
	}
	if !rv.OutputCongested(minPort, minReq.VC) {
		return minReq
	}

	// Global misrouting: only in the source group, only once.
	srcGroup := t.NodeGroup(int(p.Src))
	dstGroup := t.NodeGroup(int(p.Dst))
	if g := t.RouterGroup(r); g == srcGroup && !p.Misrouted && dstGroup != srcGroup {
		policy := it.policy
		if policy == mm {
			if inClass == topology.InjectionPort {
				policy = crg
			} else {
				policy = nrg
			}
		}
		if req, ok := it.globalCandidate(env, rv, p, policy, minPort, dstGroup, rnd); ok {
			return req
		}
	}

	// Opportunistic local misrouting outside the source group.
	if env.Cfg.LocalMisroute && !p.LocalMisrouted &&
		t.PortClass(minPort) == topology.LocalPort &&
		t.RouterGroup(r) != srcGroup {
		if req, ok := it.localCandidate(env, rv, p, minPort, rnd); ok {
			return req
		}
	}
	return minReq
}

// globalCandidate samples nonminimal first hops per the policy and returns
// the first one that is uncongested and can absorb the packet.
func (it *inTransit) globalCandidate(env *Env, rv RouterView, p *packet.Packet, policy globalPolicy, minPort, dstGroup int, rnd *rng.Source) (Request, bool) {
	t := env.Topo
	r := rv.RouterID()
	pp := t.Params()
	srcGroup := t.RouterGroup(r)
	for try := 0; try < misrouteTries; try++ {
		var port, interm int
		switch policy {
		case crg:
			// One of the current router's own global links.
			k := rnd.Intn(pp.H)
			port = pp.A - 1 + k
			interm = t.DirectGroup(r, k)
			if interm == dstGroup { // that is the minimal link
				continue
			}
		case nrg:
			// A local hop to a neighbour router, whose global link
			// then provides the intermediate group.
			l := rnd.Intn(pp.A - 1)
			neighbor := t.LocalNeighbor(r, l)
			k := rnd.Intn(pp.H)
			interm = t.DirectGroup(neighbor, k)
			if interm == dstGroup || interm == srcGroup {
				continue
			}
			port = l
		default: // RRG: any group of the network
			interm = randomOtherGroup(t, rnd, srcGroup, dstGroup)
			if gp := t.GlobalPortTo(r, interm); gp >= 0 {
				port = gp
			} else {
				idx, _ := t.GlobalRouterFor(srcGroup, interm)
				port = t.LocalPortTo(r, idx)
			}
		}
		if port == minPort {
			continue
		}
		// VC admissibility: a nonminimal hop over a local port adds a
		// second source-group local hop, which the three local VCs of
		// Table I cannot accommodate once the packet has taken its
		// minimal local hop. NRG/RRG may divert through a neighbour
		// only from the injection router; in-transit traffic is left
		// with the current router's own global links — the overlap
		// with the congested minimal links that dooms the bottleneck
		// router under ADVc (Section III).
		if t.PortClass(port) == topology.LocalPort && p.LocalHops > 0 {
			continue
		}
		vc := segmentVC(env, r, port, p)
		if rv.OutputCongested(port, vc) || !rv.CanAbsorb(port, vc) {
			continue
		}
		return Request{
			Port:   port,
			VC:     vc,
			Action: packet.Action{Kind: packet.ActionMisrouteToGroup, Group: interm},
		}, true
	}
	return Request{}, false
}

// localCandidate samples an alternative local port inside the current
// (intermediate or destination) group.
func (it *inTransit) localCandidate(env *Env, rv RouterView, p *packet.Packet, minPort int, rnd *rng.Source) (Request, bool) {
	t := env.Topo
	r := rv.RouterID()
	pp := t.Params()
	if pp.A <= 2 {
		return Request{}, false // no alternative local port exists
	}
	for try := 0; try < misrouteTries; try++ {
		l := rnd.Intn(pp.A - 1)
		if l == minPort {
			continue
		}
		vc := segmentVC(env, r, l, p)
		if rv.OutputCongested(l, vc) || !rv.CanAbsorb(l, vc) {
			continue
		}
		return Request{
			Port:   l,
			VC:     vc,
			Action: packet.Action{Kind: packet.ActionLocalMisroute},
		}, true
	}
	return Request{}, false
}

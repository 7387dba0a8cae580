package routing

import (
	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// oblivious is nonminimal oblivious (Valiant) routing. Every packet is
// diverted through a random intermediate node chosen at generation time and
// then routed minimally, regardless of network state.
//
// The intermediate selection follows the global misrouting policy:
//
//   - RRG ("Obl-RRG", classic Valiant): a uniform node anywhere in the
//     network.
//   - CRG ("Obl-CRG"): a uniform node restricted to the h groups directly
//     connected to the source router, saving the (frequent) first local hop.
type oblivious struct {
	policy globalPolicy
}

// newOblivious returns Valiant routing with the given intermediate-group
// policy. Only RRG and CRG are defined for oblivious routing (Section II-C).
func newOblivious(policy globalPolicy) *oblivious {
	if policy != rrg && policy != crg {
		panic("routing: oblivious routing supports RRG and CRG only")
	}
	return &oblivious{policy: policy}
}

// Name implements Mechanism.
func (o *oblivious) Name() string { return "Obl-" + o.policy.String() }

// VCNeeds implements Mechanism: the node-level Valiant path l g l l g l
// needs four local and two global VCs.
func (o *oblivious) VCNeeds() (int, int) { return 4, 2 }

// OnGenerate implements Mechanism: it fixes the Valiant intermediate node.
func (o *oblivious) OnGenerate(env *Env, p *packet.Packet, rnd *rng.Source) {
	chooseValiantNode(env, p, o.policy, rnd)
}

// chooseValiantNode sets p.IntNode per the policy and arms PhaseToNode.
// Shared with the source-adaptive mechanism.
func chooseValiantNode(env *Env, p *packet.Packet, policy globalPolicy, rnd *rng.Source) {
	t := env.Topo
	srcRouter := t.NodeRouter(int(p.Src))
	srcGroup := t.RouterGroup(srcRouter)
	var g int
	switch policy {
	case crg:
		// A group over one of the source router's own global links.
		k := rnd.Intn(t.Params().H)
		g = t.DirectGroup(srcRouter, k)
	default: // RRG: anywhere
		g = rnd.Intn(t.NumGroups())
	}
	if g == srcGroup {
		// An intermediate inside the source group offers no diversion
		// and would add a second source-group local hop, for which the
		// VC ordering has no channel. Route minimally instead.
		return
	}
	p.IntNode = randomNodeInGroup(t, g, rnd)
	p.Phase = packet.PhaseToNode
	p.Misrouted = true
	OnArrive(env, srcRouter, p, false)
}

// NextHop implements Mechanism.
func (o *oblivious) NextHop(env *Env, rv RouterView, p *packet.Packet, _ topology.PortClass, _ *rng.Source) Request {
	port := minimalPort(env, rv.RouterID(), p)
	return Request{Port: port, VC: valiantVC(env, rv.RouterID(), port, p)}
}

// Package routing implements the routing mechanisms and global misrouting
// policies the paper evaluates on Dragonfly networks:
//
//   - minimal routing (MIN),
//   - oblivious nonminimal (Valiant) routing with the RRG and CRG global
//     misrouting policies (Obl-RRG, Obl-CRG),
//   - PiggyBack source-adaptive routing (Src-RRG, Src-CRG),
//   - in-transit adaptive routing (PAR-style with opportunistic local
//     misrouting) with the RRG, CRG and MM policies (In-Trns-RRG,
//     In-Trns-CRG, In-Trns-MM).
//
// A Mechanism is consulted by the router model whenever a packet reaches the
// head of an input buffer. It returns a Request — the desired output port,
// the virtual channel to travel on, and a deferred Action that commits any
// misrouting decision only if the switch allocation is granted, so a denied
// request has no side effects and adaptive mechanisms may change their mind
// every cycle.
package routing

import (
	"fmt"

	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// globalPolicy selects the intermediate group of nonminimal paths
// (Section II-B of the paper).
type globalPolicy int

const (
	// rrg (random-router global): the intermediate group is drawn
	// uniformly from the whole network.
	rrg globalPolicy = iota
	// crg (current-router global): only groups directly connected to the
	// current router are eligible.
	crg
	// nrg (neighbor-router global): the intermediate group is reached
	// through a different router of the current group.
	nrg
	// mm (mixed mode): CRG when misrouting at the injection router, NRG
	// for in-transit traffic.
	mm
)

// String returns the paper's abbreviation for the policy.
func (p globalPolicy) String() string {
	switch p {
	case rrg:
		return "RRG"
	case crg:
		return "CRG"
	case nrg:
		return "NRG"
	case mm:
		return "MM"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config carries the routing parameter a run chooses; the packet size and
// VC counts are derived at build time (Env).
type Config struct {
	// LocalMisroute enables opportunistic local misrouting in
	// intermediate and destination groups (OLM-style) for the in-transit
	// mechanism.
	LocalMisroute bool
}

// DefaultConfig returns the Table I routing parameter.
func DefaultConfig() Config { return Config{LocalMisroute: true} }

// PiggyBack's saturation thresholds (Table I). PBGlobalRel: a global link
// is saturated when its queued phits exceed the mean load of the same
// router's global links by T=3 packets. pbLocalPkts: a local queue is
// saturated when it holds more than T=5 packets.
const (
	PBGlobalRel = 3
	pbLocalPkts = 5
)

// misrouteTries bounds how many nonminimal candidates an adaptive mechanism
// samples per decision before falling back to minimal.
const misrouteTries = 4

// RouterView is the local state an adaptive mechanism may observe at the
// router where the decision is taken — matching what the hardware can see.
type RouterView interface {
	// RouterID identifies the router.
	RouterID() int
	// OutputCongested reports whether the output port is congested for
	// traffic travelling on vc: the phits queued in that VC's output
	// queue plus downstream buffer exceed the Table I 43% threshold of
	// their combined capacity.
	OutputCongested(port, vc int) bool
	// LinkLoad estimates the phits queued at an output port, including
	// phits buffered downstream that have not returned credits yet.
	LinkLoad(port int) int
	// CanAbsorb reports whether a full packet can be accepted right now
	// by the output buffer and the downstream virtual channel — the
	// opportunistic condition for misrouting grants.
	CanAbsorb(port, vc int) bool
}

// GroupView exposes the group-shared global-link saturation bits that
// PiggyBack broadcasts inside each group (one-cycle-delayed snapshot).
type GroupView interface {
	// GlobalSaturated reports the saturation bit of the global link at
	// router localIdx, global port index k (0..h-1) of this group.
	GlobalSaturated(localIdx, k int) bool
}

// Env bundles the immutable context every mechanism needs.
type Env struct {
	Topo *topology.Topology
	Cfg  Config
	// PacketSize is the packet length in phits (the router's, Table I: 8).
	PacketSize int
	// LocalVCs and GlobalVCs are the virtual channel counts per port
	// class: the mechanism's VCNeeds.
	LocalVCs  int
	GlobalVCs int
	// Group returns the PiggyBack view for a group, or nil when the
	// engine does not maintain PB state.
	Group func(groupID int) GroupView
}

// Request is a desired switch allocation: output port, virtual channel and
// the routing-state change to apply on grant.
type Request struct {
	Port   int
	VC     int
	Action packet.Action
}

// Mechanism is a routing mechanism as classified by Section II-C.
type Mechanism interface {
	// Name returns the paper's curve label (e.g. "In-Trns-MM").
	Name() string
	// VCNeeds returns the (local, global) virtual channel counts the
	// mechanism's paths require for deadlock freedom.
	VCNeeds() (local, global int)
	// OnGenerate runs once when a packet is created; oblivious
	// mechanisms fix their Valiant intermediate node here.
	OnGenerate(env *Env, p *packet.Packet, rnd *rng.Source)
	// NextHop computes the desired output for the packet at the head of
	// an input buffer of the router rv. inClass is the class of the
	// input port holding the packet. It is called every cycle until the
	// request is granted.
	NextHop(env *Env, rv RouterView, p *packet.Packet, inClass topology.PortClass, rnd *rng.Source) Request
}

// OnArrive normalises a packet's routing state when it enters a router
// (including its injection router). enteredGroup reports that the hop that
// delivered the packet was a global link, i.e. the packet just changed
// groups.
func OnArrive(env *Env, routerID int, p *packet.Packet, enteredGroup bool) {
	if enteredGroup {
		p.LocalMisrouted = false
	}
	t := env.Topo
	for {
		switch {
		case p.Phase == packet.PhaseToNode && t.NodeRouter(int(p.IntNode)) == routerID:
			p.Phase = packet.PhaseMinimal
		case p.Phase == packet.PhaseToGroup && t.RouterGroup(routerID) == int(p.IntGroup):
			p.Phase = packet.PhaseMinimal
		default:
			return
		}
	}
}

// targetNode returns the node the packet currently steers towards.
func targetNode(p *packet.Packet) int {
	if p.Phase == packet.PhaseToNode {
		return int(p.IntNode)
	}
	return int(p.Dst)
}

// minimalPort returns the unique next output port of the packet's current
// steering target from router r: the ejection port at the final router, a
// local port inside the target's group, or the global port (possibly behind
// one local hop) towards the target group.
func minimalPort(env *Env, r int, p *packet.Packet) int {
	t := env.Topo
	g := t.RouterGroup(r)
	if p.Phase == packet.PhaseToGroup {
		// Head for the intermediate group; OnArrive flips the phase
		// once the packet gets there, so g != IntGroup here.
		if port := t.GlobalPortTo(r, int(p.IntGroup)); port >= 0 {
			return port
		}
		idx, _ := t.GlobalRouterFor(g, int(p.IntGroup))
		return t.LocalPortTo(r, idx)
	}
	dst := targetNode(p)
	dr := t.NodeRouter(dst)
	if dr == r {
		// OnArrive guarantees the packet only terminates at Dst.
		return t.NodePort(int(p.Dst))
	}
	dg := t.RouterGroup(dr)
	if dg == g {
		return t.LocalPortTo(r, t.RouterLocalIndex(dr))
	}
	if port := t.GlobalPortTo(r, dg); port >= 0 {
		return port
	}
	idx, _ := t.GlobalRouterFor(g, dg)
	return t.LocalPortTo(r, idx)
}

// valiantVC implements the VC scheme of the node-level Valiant paths used
// by the oblivious and source-adaptive mechanisms (l g l l g l). Virtual
// channels encode the packet's position along the canonical path — local 0
// in the source group, 1 and 2 inside the intermediate group, 3 in the
// destination group; global 0 towards the intermediate, 1 towards the
// destination — which totally orders the channels visited by any packet
// (l0 < g0 < l1 < l2 < g1 < l3) and therefore keeps the channel dependency
// graph acyclic. A per-class hop counter would NOT be safe: a packet taking
// a direct global first hop would reuse local VC 0 in the next group,
// closing a l0→g0→l0 dependency cycle around the group ring.
func valiantVC(env *Env, r, port int, p *packet.Packet) int {
	t := env.Topo
	switch t.PortClass(port) {
	case topology.GlobalPort:
		return int(p.GlobalHops)
	case topology.LocalPort:
		g := t.RouterGroup(r)
		if g == t.NodeGroup(int(p.Src)) && p.GlobalHops == 0 {
			// Fresh source-group hop. A packet whose destination is
			// its own source group returns with GlobalHops == 2 and
			// must use the destination VC below, not reopen VC 0.
			return 0
		}
		if p.Phase == packet.PhaseToNode {
			return 1 // entering the intermediate group
		}
		if p.IntNode >= 0 && g == t.NodeGroup(int(p.IntNode)) && g != t.NodeGroup(int(p.Dst)) {
			return 2 // leaving the intermediate group
		}
		vc := 3
		if vc > env.LocalVCs-1 {
			vc = env.LocalVCs - 1
		}
		return vc
	default:
		return 0
	}
}

// segmentVC implements the phase-segment VC scheme used by MIN and the
// in-transit mechanisms: local VC 0 in the source group, 1 in intermediate
// groups, 2 in the destination group; global VC = global hop index. Extra
// local-misroute hops reuse the segment VC under the opportunistic
// absorption condition.
func segmentVC(env *Env, r, port int, p *packet.Packet) int {
	t := env.Topo
	switch t.PortClass(port) {
	case topology.GlobalPort:
		return int(p.GlobalHops)
	case topology.LocalPort:
		g := t.RouterGroup(r)
		switch {
		case g == t.NodeGroup(int(p.Src)):
			return 0
		case g == t.NodeGroup(int(p.Dst)):
			vc := 2
			if vc > env.LocalVCs-1 {
				vc = env.LocalVCs - 1
			}
			return vc
		default:
			return 1
		}
	default:
		return 0
	}
}

// randomNodeInGroup draws a uniform node of group g, as a packet's
// intermediate node.
func randomNodeInGroup(t *topology.Topology, g int, rnd *rng.Source) int32 {
	p := t.Params()
	perGroup := p.A * p.P
	return int32(g*perGroup + rnd.Intn(perGroup))
}

// randomOtherGroup draws a uniform group different from the excluded ones.
// It panics if fewer than one group remains.
func randomOtherGroup(t *topology.Topology, rnd *rng.Source, exclude ...int) int {
	g := t.NumGroups()
	for tries := 0; tries < 64; tries++ {
		c := rnd.Intn(g)
		ok := true
		for _, e := range exclude {
			if c == e {
				ok = false
				break
			}
		}
		if ok {
			return c
		}
	}
	// Fall back to a linear scan: only reachable in pathological tiny
	// networks where almost all groups are excluded.
	for c := 0; c < g; c++ {
		ok := true
		for _, e := range exclude {
			if c == e {
				ok = false
				break
			}
		}
		if ok {
			return c
		}
	}
	panic("routing: no eligible group")
}

package sim

import (
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// pbState maintains the PiggyBack group-broadcast of global-link saturation
// bits. A group's bits are refreshed at the top of each of its cycles,
// before any of its routers steps, from their end-of-previous-cycle state
// — giving the one-cycle notification delay of a real in-group broadcast.
// A group's bits are read and written by its own routers' steps only, so
// they belong to whichever worker owns the group.
//
// The saturation rule follows the paper (Section II-C, Table I): a global
// link is saturated when its credit count exceeds a threshold of T=3
// packets *relative to the other links* — i.e. its queued phits exceed the
// mean over the same router's global links by T packets. The rule is
// relative, which is exactly why PB cannot flag the bottleneck router's
// links under ADVc: all h of them carry the same high load, so none stands
// out against the mean.
type pbState struct {
	topo *topology.Topology
	net  *Network
	bits []bool // per group: a*h saturation bits, groups back to back
	per  int    // a*h
	// loads is updateGroup's scratch, one a*h region per group like bits
	// (groups refresh concurrently on several workers): every link load is
	// read through the Fabric seam once, not once per pass.
	loads []int
	// marginPhits is the T-packet margin over the router mean.
	marginPhits float64
	// updates counts updateGroup calls per group (one writer per group at
	// any worker count), so tests can verify the scheduler engine actually
	// skips refreshes of quiescent groups.
	updates []int64
}

// totalUpdates sums the per-group refresh counters.
func (s *pbState) totalUpdates() int64 {
	var n int64
	for _, u := range s.updates {
		n += u
	}
	return n
}

func newPBState(net *Network, thresholdPkts float64, packetSize int) *pbState {
	t := net.Topo
	p := t.Params()
	return &pbState{
		topo: t, net: net, marginPhits: thresholdPkts * float64(packetSize),
		bits: make([]bool, t.NumGroups()*p.A*p.H), per: p.A * p.H,
		loads:   make([]int, t.NumGroups()*p.A*p.H),
		updates: make([]int64, t.NumGroups()),
	}
}

// allDirty returns a per-group refresh-needed vector with every group
// marked, or nil when the network has no PiggyBack state.
func (s *pbState) allDirty() []bool {
	if s == nil {
		return nil
	}
	dirty := make([]bool, len(s.updates))
	for g := range dirty {
		dirty[g] = true
	}
	return dirty
}

// updateGroup recomputes the bits of one group. A group's bits depend only
// on its own routers' output-link loads, which change exclusively when one
// of those routers steps — so the scheduler engine refreshes only groups
// with a router stepped in the previous cycle (bit-identical to the dense
// refresh, which recomputes unchanged bits to the same values).
func (s *pbState) updateGroup(g int) {
	s.updates[g]++
	p := s.topo.Params()
	bits := s.bits[g*s.per : (g+1)*s.per]
	loads := s.loads[g*s.per : (g+1)*s.per]
	fab := s.net.fab
	for i := 0; i < p.A; i++ {
		r := s.topo.RouterID(g, i)
		total := 0
		for k := 0; k < p.H; k++ {
			loads[i*p.H+k] = fab.OutputUsed(r, p.A-1+k)
			total += loads[i*p.H+k]
		}
		mean := float64(total) / float64(p.H)
		for k := 0; k < p.H; k++ {
			bits[i*p.H+k] = float64(loads[i*p.H+k]) > mean+s.marginPhits
		}
	}
}

// groupView adapts one group's bits to routing.GroupView.
type groupView struct {
	s *pbState
	g int
}

// GlobalSaturated implements routing.GroupView.
func (v groupView) GlobalSaturated(localIdx, k int) bool {
	return v.s.bits[v.g*v.s.per+localIdx*v.s.topo.Params().H+k]
}

// view returns the routing.GroupView for a group.
func (s *pbState) view(g int) routing.GroupView { return groupView{s: s, g: g} }

// PBGroups returns the number of groups with PiggyBack state to refresh:
// the network's group count under a Src-* mechanism, 0 otherwise.
func (net *Network) PBGroups() int {
	if net.pb == nil {
		return 0
	}
	return len(net.pb.updates)
}

// RefreshPB recomputes group g's PiggyBack bits from its routers' current
// link loads. Engines call it before any router of g steps in a cycle.
func (net *Network) RefreshPB(g int) { net.pb.updateGroup(g) }

package sim

import (
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// pbState maintains the PiggyBack group-broadcast of global-link saturation
// bits. A group's bits are refreshed at the top of each of its cycles,
// before any of its routers steps, from their end-of-previous-cycle state
// — giving the one-cycle notification delay of a real in-group broadcast.
// The dense engines do exactly that (RefreshPB); the group-major engine
// recomputes a router's row only when its loads moved and somebody is about
// to read the bits (engine.refreshPB). A group's bits are read and written
// by its own routers' steps only, so they belong to whichever worker owns
// the group.
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
	// updates counts, per group, the refreshes that recomputed anything (one
	// writer per group at any worker count), so tests can verify the
	// scheduler engine actually skips refreshes of quiescent groups.
	updates []int64
	// stale marks, per router, a row whose link loads moved since it was last
	// recomputed. Only engine.refreshPB reads it.
	stale []bool
	// views are the groups' routing.GroupView faces, built once so that a
	// source decision looks its group up without boxing a view.
	views []groupView
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
	s := &pbState{
		topo: t, net: net, marginPhits: thresholdPkts * float64(packetSize),
		bits: make([]bool, t.NumGroups()*p.A*p.H), per: p.A * p.H,
		loads:   make([]int, t.NumGroups()*p.A*p.H),
		updates: make([]int64, t.NumGroups()),
		stale:   make([]bool, t.NumRouters()),
		views:   make([]groupView, t.NumGroups()),
	}
	for g := range s.views {
		s.views[g] = groupView{s: s, g: g}
	}
	return s
}

// allStale marks every row for recomputation: a run starts from bits it
// knows nothing about. Inert without PiggyBack state, like markStale.
func (s *pbState) allStale() {
	if s == nil {
		return
	}
	for r := range s.stale {
		s.stale[r] = true
	}
}

// markStale records that router r's link loads moved.
func (s *pbState) markStale(r int) {
	if s != nil {
		s.stale[r] = true
	}
}

// updateGroup recomputes the bits of one group, for the engines that refresh
// every group every cycle.
func (s *pbState) updateGroup(g int) {
	s.updates[g]++
	a := s.topo.Params().A
	for r := g * a; r < (g+1)*a; r++ {
		s.updateRow(r)
	}
}

// updateRow recomputes the h bits of router r — its row of its group's a*h.
// They depend on r's own global-link loads only (the rule is relative to the
// router's mean), so a row whose router's loads have not moved is current.
func (s *pbState) updateRow(r int) {
	p := s.topo.Params()
	bits := s.bits[r*p.H : (r+1)*p.H]
	loads := s.loads[r*p.H : (r+1)*p.H]
	fab := s.net.fab
	total := 0
	for k := range loads {
		loads[k] = fab.OutputUsed(r, p.A-1+k)
		total += loads[k]
	}
	mean := float64(total) / float64(p.H)
	for k := range bits {
		bits[k] = float64(loads[k]) > mean+s.marginPhits
	}
}

// groupView adapts one group's bits to routing.GroupView.
type groupView struct {
	s *pbState
	g int
}

// GlobalSaturated implements routing.GroupView.
func (v *groupView) GlobalSaturated(localIdx, k int) bool {
	return v.s.bits[v.g*v.s.per+localIdx*v.s.topo.Params().H+k]
}

// view returns the routing.GroupView for a group.
func (s *pbState) view(g int) routing.GroupView { return &s.views[g] }

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

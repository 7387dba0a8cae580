package sim

import (
	"math"

	"dragonfly/internal/router"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// pbState maintains the PiggyBack group-broadcast of global-link saturation
// bits. A group's bits as its routers read them in cycle now are computed
// from the routers' state at the end of cycle now-1 — the one-cycle
// notification delay of a real in-group broadcast. The dense engines
// recompute every group at the top of every cycle (RefreshPB); the
// group-major engine brings a router's row up to date only when it is about
// to be read: just before its own router steps (stepping), when a source
// decision reads one of its bits (groupView.GlobalSaturated), and for every
// router at the top of a window's last cycle (captureGroup), where probes
// look next. A group's bits are read and written by its own routers' steps
// only, so they belong to whichever worker owns the group.
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
	// loads is updateRow's scratch, one a*h region per group like bits
	// (groups refresh concurrently on several workers): every link load is
	// read through the Fabric seam once, not once per pass.
	loads []int
	// marginPhits is the T-packet margin over the router mean.
	marginPhits float64
	// updates counts, per group, the rows recomputed (one writer per group
	// at any worker count), so tests can verify the engine skips the rows
	// nobody reads and the rows whose loads did not move.
	updates []int64
	// stale marks, per router, a row whose link loads moved since it was last
	// recomputed: its router stepped, or the driver's Settle moved it.
	stale []bool
	// core is the live engine run's core, nil between runs and under the
	// dense engines, whose every-cycle RefreshPB keeps the bits current.
	// While it is set, rowAt and now say how current each row is.
	core *router.Core
	// rowAt is, per router, the cycle its row was last brought to: the row
	// shows the router's state at the end of cycle rowAt-1.
	rowAt []int64
	// now is, per group, the cycle its routers are stepping in.
	now []int64
	// views are the groups' routing.GroupView faces, built once so that a
	// source decision looks its group up without boxing a view.
	views []groupView
}

// totalUpdates sums the per-group row counters.
func (s *pbState) totalUpdates() int64 {
	var n int64
	for _, u := range s.updates {
		n += u
	}
	return n
}

func newPBState(net *Network) *pbState {
	t := net.topo
	p := t.Params()
	s := &pbState{
		topo: t, net: net, marginPhits: float64(routing.PBGlobalRel * net.rcfg.PacketSize),
		bits: make([]bool, t.NumGroups()*p.A*p.H), per: p.A * p.H,
		loads:   make([]int, t.NumGroups()*p.A*p.H),
		updates: make([]int64, t.NumGroups()),
		stale:   make([]bool, t.NumRouters()),
		rowAt:   make([]int64, t.NumRouters()),
		now:     make([]int64, t.NumGroups()),
		views:   make([]groupView, t.NumGroups()),
	}
	for g := range s.views {
		s.views[g] = groupView{s: s, g: g}
	}
	return s
}

// begin readies the bits for an engine run on core: every row is stale and
// current nowhere, since a run starts from bits it knows nothing about, and
// the row counters start from 0. Inert without PiggyBack state, like every
// pbState method the engine calls.
func (s *pbState) begin(core *router.Core) {
	if s == nil {
		return
	}
	s.core = core
	clear(s.updates)
	for r := range s.stale {
		s.stale[r], s.rowAt[r] = true, math.MinInt64
	}
}

// end closes the engine run: the bits stand as its last capture left them.
func (s *pbState) end() {
	if s != nil {
		s.core = nil
	}
}

// markStale records that router r's link loads moved.
func (s *pbState) markStale(r int) {
	if s != nil {
		s.stale[r] = true
	}
}

// capture brings router r's row, in group g, to cycle now: r is settled to
// the end of cycle now-1 and its row recomputed if that moved anything or
// its loads moved earlier. Until the end of cycle now only r's own step
// changes r — events pushed during the cycle fall due later, and a full
// credit ring's pop applies a credit that was due by now-1 — and stepping
// captures before that, so the row stays right for the whole cycle, however
// often it is read.
func (s *pbState) capture(g, r int, now int64) {
	if s.rowAt[r] >= now {
		return
	}
	if s.core.Settle(r, now-1) || s.stale[r] {
		s.updateRow(r)
		s.stale[r] = false
		s.updates[g]++
	}
	s.rowAt[r] = now
}

// stepping captures router r's row, in group g, just before r steps in
// cycle now — after the step r's state is past now-1 — and marks it stale,
// since the step moves its loads.
func (s *pbState) stepping(g, r int, now int64) {
	if s == nil {
		return
	}
	s.now[g] = now
	s.capture(g, r, now)
	s.stale[r] = true
}

// captureGroup captures every row of group g at the top of cycle now, the
// window's last: a probe between windows must find the bits one cycle
// behind the state, as the dense engines leave them.
func (s *pbState) captureGroup(g int, now int64) {
	if s == nil {
		return
	}
	a := s.topo.Params().A
	for r := g * a; r < (g+1)*a; r++ {
		s.capture(g, r, now)
	}
}

// updateGroup recomputes the bits of one group, for the engines that refresh
// every group every cycle.
func (s *pbState) updateGroup(g int) {
	a := s.topo.Params().A
	s.updates[g] += int64(a)
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

// GlobalSaturated implements routing.GroupView. During an engine run the
// read router's row is first brought to the reader's cycle.
func (v *groupView) GlobalSaturated(localIdx, k int) bool {
	s, p := v.s, v.s.topo.Params()
	if s.core != nil {
		s.capture(v.g, v.g*p.A+localIdx, s.now[v.g])
	}
	return s.bits[v.g*s.per+localIdx*p.H+k]
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

// PBRows returns the PiggyBack rows the last engine run recomputed (0
// without PiggyBack state): the dense engines recompute every router's row
// every cycle, the group-major engine only the rows read and moved.
func (net *Network) PBRows() int64 {
	if net.pb == nil {
		return 0
	}
	return net.pb.totalUpdates()
}

// RefreshPB recomputes group g's PiggyBack bits from its routers' current
// link loads. Engines call it before any router of g steps in a cycle.
func (net *Network) RefreshPB(g int) { net.pb.updateGroup(g) }

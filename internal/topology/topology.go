// Package topology models canonical Dragonfly networks: two-level
// hierarchical direct networks with fully connected groups of routers and a
// fully connected inter-group graph (Kim et al., ISCA 2008; Camarero et al.,
// TACO 2014).
//
// A canonical Dragonfly is described by three parameters:
//
//   - p: compute nodes attached to every router,
//   - a: routers per group,
//   - h: global (inter-group) links per router.
//
// With g = a*h+1 groups every pair of groups is joined by exactly one global
// link, so minimal paths are unique and at most three hops long
// (local, global, local). The package provides the identifier spaces for
// groups, routers, nodes and ports, the global link arrangement (which router
// of a group owns the link towards each remote group), and minimal-path
// queries used by every routing mechanism.
package topology

import (
	"fmt"
	"math"
)

// Arrangement selects how the a*h global links of a group are distributed
// among its routers. The arrangement determines which router of a group
// becomes the bottleneck under consecutive adversarial traffic.
type Arrangement int

const (
	// Palmtree is the arrangement used throughout the paper: router i,
	// global port k of group g connects to group g-(i*h+k+1) mod G.
	// Consequently router a-1 owns the links towards the h groups that
	// follow g (+1..+h) and router 0 receives the reciprocal links from
	// the h preceding groups.
	Palmtree Arrangement = iota
	// Consecutive numbers the group's global links j = i*h+k in order:
	// link j connects to group g+(j+1) mod G. Router 0 owns the links
	// towards +1..+h.
	Consecutive
)

// String returns the conventional lowercase arrangement name.
func (ar Arrangement) String() string {
	switch ar {
	case Palmtree:
		return "palmtree"
	case Consecutive:
		return "consecutive"
	default:
		return fmt.Sprintf("arrangement(%d)", int(ar))
	}
}

// Params describes a canonical Dragonfly.
type Params struct {
	P int // nodes per router
	A int // routers per group
	H int // global links per router

	Arrangement Arrangement
}

// Balanced returns the balanced canonical Dragonfly for a given h,
// following the a = 2h, p = h sizing rule from Kim et al. The paper's
// network is Balanced(6): 73 groups, 876 routers, 5,256 nodes.
func Balanced(h int) Params {
	return Params{P: h, A: 2 * h, H: h, Arrangement: Palmtree}
}

// maxRouterBits bounds the size of a network: router ids must fit in this
// many bits. It is the admission bound against hostile specs — Validate
// runs before anything is sized from parameters that arrive from outside
// the program — and 2^20 routers is three orders of magnitude above the
// paper-scale network.
const (
	maxRouterBits = 20
	maxRouters    = 1 << maxRouterBits
)

// Validate reports whether the parameters describe a legal canonical
// Dragonfly that this package can represent. It only does arithmetic, so it
// is safe on parameters from outside the program: callers validate before
// they build anything.
func (p Params) Validate() error {
	switch {
	case p.P <= 0:
		return fmt.Errorf("topology: p must be positive, got %d", p.P)
	case p.A <= 1:
		return fmt.Errorf("topology: a must be at least 2, got %d", p.A)
	case p.H <= 0:
		return fmt.Errorf("topology: h must be positive, got %d", p.H)
	case p.Arrangement != Palmtree && p.Arrangement != Consecutive:
		return fmt.Errorf("topology: unknown arrangement %v", p.Arrangement)
	// a and h are bounded first so the product below cannot overflow.
	case p.A > maxRouters || p.H > maxRouters || p.Routers() > maxRouters:
		return fmt.Errorf("topology: a=%d, h=%d needs more than the supported %d (2^%d) routers",
			p.A, p.H, maxRouters, maxRouterBits)
	// Node ids are 32-bit in a packet; the router count is bounded above.
	case p.P > math.MaxInt32/p.Routers():
		return fmt.Errorf("topology: p=%d on %d routers needs more than the supported %d nodes",
			p.P, p.Routers(), math.MaxInt32)
	}
	return nil
}

// Groups returns the number of groups, a*h+1.
func (p Params) Groups() int { return p.A*p.H + 1 }

// Routers returns the total number of routers in the network.
func (p Params) Routers() int { return p.Groups() * p.A }

// Nodes returns the total number of compute nodes in the network.
func (p Params) Nodes() int { return p.Routers() * p.P }

// routerRadix returns the number of ports per router:
// (a-1) local + h global + p injection.
func (p Params) routerRadix() int { return p.A - 1 + p.H + p.P }

func (p Params) String() string {
	return fmt.Sprintf("dragonfly(p=%d,a=%d,h=%d,%v: %d groups, %d routers, %d nodes)",
		p.P, p.A, p.H, p.Arrangement, p.Groups(), p.Routers(), p.Nodes())
}

// Port classes. Every router numbers its ports as
// [0, a-1) local, [a-1, a-1+h) global, [a-1+h, a-1+h+p) injection/ejection.
type PortClass int

const (
	LocalPort PortClass = iota
	GlobalPort
	InjectionPort
)

// String returns the lowercase class name.
func (c PortClass) String() string {
	switch c {
	case LocalPort:
		return "local"
	case GlobalPort:
		return "global"
	case InjectionPort:
		return "injection"
	default:
		return fmt.Sprintf("portclass(%d)", int(c))
	}
}

// Topology is an immutable, fully precomputed Dragonfly instance. All
// methods are safe for concurrent use.
type Topology struct {
	params Params

	groups  int
	routers int
	nodes   int

	// offsetRouter[d-1] and offsetPort[d-1] give, for a destination group
	// at offset d (1..a*h) from the source group, the local router index
	// and global port index that own the link towards it. Both
	// arrangements are group-transitive, so one table serves every group.
	offsetRouter []int
	offsetPort   []int

	// portOffset[i*h+k] is the group offset reached by router i, global
	// port k (the inverse of the tables above).
	portOffset []int

	// routerGroup[r], routerIndex[r] and nodeRouter[n] are r/a, r%a and n/p,
	// tabulated: a routing decision asks for them a dozen times, and a
	// division by a run-time constant costs more than the (cached) load.
	routerGroup []int32
	routerIndex []int32
	nodeRouter  []int32
}

// New builds a Topology from params. It panics if params are invalid;
// use Params.Validate to check untrusted input first.
func New(params Params) *Topology {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	t := &Topology{
		params:  params,
		groups:  params.Groups(),
		routers: params.Routers(),
		nodes:   params.Nodes(),
	}
	ah := params.A * params.H
	t.offsetRouter = make([]int, ah)
	t.offsetPort = make([]int, ah)
	t.portOffset = make([]int, ah)
	for d := 1; d <= ah; d++ {
		var j int // global link index i*h+k within the group
		switch params.Arrangement {
		case Palmtree:
			// (g,i,k) -> g-(i*h+k+1), so offset d corresponds to
			// i*h+k+1 = G-d, i.e. j = a*h-d.
			j = ah - d
		case Consecutive:
			// link j -> offset j+1.
			j = d - 1
		}
		t.offsetRouter[d-1] = j / params.H
		t.offsetPort[d-1] = j % params.H
		t.portOffset[j] = d
	}
	t.routerGroup = make([]int32, t.routers)
	t.routerIndex = make([]int32, t.routers)
	for r := range t.routerGroup {
		t.routerGroup[r] = int32(r / params.A)
		t.routerIndex[r] = int32(r % params.A)
	}
	t.nodeRouter = make([]int32, t.nodes)
	for n := range t.nodeRouter {
		t.nodeRouter[n] = int32(n / params.P)
	}
	return t
}

// wrap reduces a group number in [0, 2G) modulo the group count: every sum
// of a group id and a group offset, without the division.
func (t *Topology) wrap(g int) int {
	if g >= t.groups {
		g -= t.groups
	}
	return g
}

// Params returns the parameters this topology was built from.
func (t *Topology) Params() Params { return t.params }

// NumGroups returns the number of groups.
func (t *Topology) NumGroups() int { return t.groups }

// NumRouters returns the total router count.
func (t *Topology) NumRouters() int { return t.routers }

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return t.nodes }

// RouterGroup returns the group a router belongs to.
func (t *Topology) RouterGroup(r int) int { return int(t.routerGroup[r]) }

// RouterLocalIndex returns a router's index within its group (0..a-1).
func (t *Topology) RouterLocalIndex(r int) int { return int(t.routerIndex[r]) }

// RouterID returns the global router identifier for a (group, local index)
// pair.
func (t *Topology) RouterID(group, localIdx int) int { return group*t.params.A + localIdx }

// NodeRouter returns the router a node is attached to.
func (t *Topology) NodeRouter(n int) int { return int(t.nodeRouter[n]) }

// NodeGroup returns the group a node belongs to.
func (t *Topology) NodeGroup(n int) int { return t.RouterGroup(t.NodeRouter(n)) }

// NodeID returns the node identifier for (router, node index at router).
func (t *Topology) NodeID(router, idx int) int { return router*t.params.P + idx }

// NodePort returns the injection/ejection port a node uses at its router.
func (t *Topology) NodePort(n int) int {
	return t.params.A - 1 + t.params.H + n - int(t.nodeRouter[n])*t.params.P
}

// PortClass classifies a port number of any router.
func (t *Topology) PortClass(port int) PortClass {
	switch {
	case port < t.params.A-1:
		return LocalPort
	case port < t.params.A-1+t.params.H:
		return GlobalPort
	default:
		return InjectionPort
	}
}

// NumPorts returns the router radix.
func (t *Topology) NumPorts() int { return t.params.routerRadix() }

// LocalPortTo returns the local port of router r that connects to the
// router with local index dstIdx in the same group. It panics if dstIdx is
// the router itself.
func (t *Topology) LocalPortTo(r, dstIdx int) int {
	self := t.RouterLocalIndex(r)
	if dstIdx == self {
		panic("topology: local port to self")
	}
	// Local port l of router i connects to local index l when l < i and
	// l+1 otherwise, so the inverse is:
	if dstIdx < self {
		return dstIdx
	}
	return dstIdx - 1
}

// LocalNeighbor returns the router reached through local port l of router r.
func (t *Topology) LocalNeighbor(r, l int) int {
	self := t.RouterLocalIndex(r)
	idx := l
	if l >= self {
		idx = l + 1
	}
	return t.RouterID(t.RouterGroup(r), idx)
}

// GlobalNeighbor returns the router and input port reached through global
// port gp (a-1 <= gp < a-1+h) of router r.
func (t *Topology) GlobalNeighbor(r, gp int) (router, port int) {
	k := gp - (t.params.A - 1)
	i := t.RouterLocalIndex(r)
	g := t.RouterGroup(r)
	d := t.portOffset[i*t.params.H+k]
	dstGroup := t.wrap(g + d)
	// The reciprocal link sits at the entry for offset G-d in the
	// destination group's tables.
	back := t.groups - d
	dstIdx := t.offsetRouter[back-1]
	dstPort := t.params.A - 1 + t.offsetPort[back-1]
	return t.RouterID(dstGroup, dstIdx), dstPort
}

// groupOffset returns the offset (0..G-1) of group dst relative to group
// src: (dst-src) mod G, for two group ids.
func (t *Topology) groupOffset(src, dst int) int {
	d := dst - src
	if d < 0 {
		d += t.groups
	}
	return d
}

// GlobalRouterFor returns the local index of the router in group src that
// owns the global link towards group dst, and the global port number of
// that link. src and dst must differ. GlobalRouterFor(0, 1) is the router
// the ADVc pattern congests: router a-1 under the palmtree arrangement,
// router 0 under the consecutive one.
func (t *Topology) GlobalRouterFor(src, dst int) (localIdx, port int) {
	d := t.groupOffset(src, dst)
	if d == 0 {
		panic("topology: GlobalRouterFor within one group")
	}
	return t.offsetRouter[d-1], t.params.A - 1 + t.offsetPort[d-1]
}

// GlobalPortTo returns the global port of router r that connects directly
// to group dst, or -1 if r does not own that link.
func (t *Topology) GlobalPortTo(r, dst int) int {
	g := t.RouterGroup(r)
	if g == dst {
		return -1
	}
	idx, port := t.GlobalRouterFor(g, dst)
	if idx != t.RouterLocalIndex(r) {
		return -1
	}
	return port
}

// DirectGroup returns the group reached over router r's k-th global port,
// without allocating: it is on the routing hot path (the engines'
// zero-allocation gate covers it).
func (t *Topology) DirectGroup(r, k int) int {
	g := t.RouterGroup(r)
	i := t.RouterLocalIndex(r)
	return t.wrap(g + t.portOffset[i*t.params.H+k])
}

// PathLength holds the hop composition of a path.
type PathLength struct {
	Local  int // local links traversed
	Global int // global links traversed
}

// Hops returns the total number of links.
func (l PathLength) Hops() int { return l.Local + l.Global }

// MinimalPathLength returns the hop composition of the unique minimal path
// between two nodes.
func (t *Topology) MinimalPathLength(src, dst int) PathLength {
	if src == dst {
		return PathLength{}
	}
	rs, rd := t.NodeRouter(src), t.NodeRouter(dst)
	if rs == rd {
		return PathLength{}
	}
	gs, gd := t.RouterGroup(rs), t.RouterGroup(rd)
	if gs == gd {
		return PathLength{Local: 1}
	}
	var l PathLength
	l.Global = 1
	exitIdx, _ := t.GlobalRouterFor(gs, gd)
	if exitIdx != t.RouterLocalIndex(rs) {
		l.Local++
	}
	entryIdx, _ := t.GlobalRouterFor(gd, gs)
	if entryIdx != t.RouterLocalIndex(rd) {
		l.Local++
	}
	return l
}

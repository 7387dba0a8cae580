// Package traffic provides the synthetic traffic patterns of the paper's
// evaluation (Section IV-A): uniform random (UN), adversarial (ADV+i) and
// the new adversarial-consecutive (ADVc) pattern of Section III, plus two
// generalisations used by the examples — a consecutive pattern with an
// arbitrary group count and the "application-uniform" pattern that models
// the job-scheduler use case motivating ADVc.
//
// A Pattern maps a source node to a destination node, one draw per packet.
// Patterns never return the source itself.
package traffic

import (
	"fmt"
	"strconv"
	"strings"

	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// Pattern draws destination nodes for generated packets.
type Pattern interface {
	// Name returns the paper's pattern label (e.g. "ADVc").
	Name() string
	// Dest returns the destination node for a packet injected by src.
	Dest(src int, rnd *rng.Source) int
}

// Timed is implemented by patterns whose destination draw depends on the
// simulation cycle (phased workloads). The engine calls DestAt with the
// arrival cycle of the packet; both engines process every arrival at its
// exact cycle, so DestAt sees identical times regardless of engine or
// worker count. A negative return means the source stays silent this draw.
type Timed interface {
	Pattern
	DestAt(src int, now int64, rnd *rng.Source) int
}

// Memberer is implemented by patterns under which some sources never
// generate traffic at all; the simulator leaves non-members out of the
// generation calendar entirely.
type Memberer interface {
	Member(node int) bool
}

// NodeLoads is implemented by patterns that override the offered load of
// individual nodes (multi-job workloads with per-job loads). NodeLoad
// returns the offered load in phits/(node·cycle) for the node, or 0 to use
// the run's configured load.
type NodeLoads interface {
	NodeLoad(node int) float64
}

// JobMapper attributes nodes to jobs for per-job accounting. Implemented by
// workload patterns; the simulator then reports throughput, latency and
// fairness per job as well as globally.
type JobMapper interface {
	NumJobs() int
	JobName(j int) string
	// NodeJobs returns the live node→job map (-1: unallocated), lent
	// read-only: the simulator stamps packets from it at generation, so a
	// pattern whose tenancy changes mid-run (a scheduled workload's
	// Place/Release) is followed without any copy to keep in step.
	NodeJobs() []int32
}

// Uniform is the UN pattern: every packet targets a uniform random node of
// the whole network (excluding the source node itself).
type Uniform struct {
	topo *topology.Topology
}

// NewUniform returns the UN pattern.
func NewUniform(t *topology.Topology) *Uniform { return &Uniform{topo: t} }

// Name implements Pattern.
func (*Uniform) Name() string { return "UN" }

// Dest implements Pattern.
func (u *Uniform) Dest(src int, rnd *rng.Source) int {
	n := u.topo.NumNodes()
	d := rnd.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// Adversarial is the ADV+i pattern: every node of group g sends all its
// traffic to uniform nodes of group g+offset. With offset 1 this is the
// paper's ADV+1.
type Adversarial struct {
	topo   *topology.Topology
	offset int
}

// NewAdversarial returns the ADV+offset pattern. offset must be in
// [1, groups).
func NewAdversarial(t *topology.Topology, offset int) *Adversarial {
	if offset <= 0 || offset >= t.NumGroups() {
		panic(fmt.Sprintf("traffic: ADV offset %d out of range [1,%d)", offset, t.NumGroups()))
	}
	return &Adversarial{topo: t, offset: offset}
}

// Name implements Pattern.
func (a *Adversarial) Name() string { return "ADV+" + strconv.Itoa(a.offset) }

// Dest implements Pattern.
func (a *Adversarial) Dest(src int, rnd *rng.Source) int {
	g := (a.topo.NodeGroup(src) + a.offset) % a.topo.NumGroups()
	return randomNode(a.topo, g, rnd)
}

// Consecutive is the ADVc pattern of Section III generalised to k
// destination groups: every node sends each packet to a uniform node in one
// of the k consecutive groups (+1..+k) after its own. With k = h (the
// default, NewADVc) all minimal paths of a group meet in the single
// bottleneck router that owns the +1..+h global links under the palmtree
// arrangement.
type Consecutive struct {
	topo *topology.Topology
	k    int
}

// NewADVc returns the paper's ADVc pattern (k = h).
func NewADVc(t *topology.Topology) *Consecutive {
	return NewConsecutive(t, t.Params().H)
}

// NewConsecutive returns the ADVc-style pattern with k destination groups.
func NewConsecutive(t *topology.Topology, k int) *Consecutive {
	if k <= 0 || k >= t.NumGroups() {
		panic(fmt.Sprintf("traffic: ADVc group count %d out of range [1,%d)", k, t.NumGroups()))
	}
	return &Consecutive{topo: t, k: k}
}

// Name implements Pattern.
func (c *Consecutive) Name() string {
	if c.k == c.topo.Params().H {
		return "ADVc"
	}
	return fmt.Sprintf("ADVc(%d)", c.k)
}

// Dest implements Pattern.
func (c *Consecutive) Dest(src int, rnd *rng.Source) int {
	g := (c.topo.NodeGroup(src) + 1 + rnd.Intn(c.k)) % c.topo.NumGroups()
	return randomNode(c.topo, g, rnd)
}

// AppUniform models the use case of Section III: an application allocated
// on a set of consecutive groups whose processes communicate uniformly.
// Sources outside the allocation stay silent (Dest returns -1), and inside
// it traffic is uniform over the allocation — which the topology turns into
// ADVc-like traffic at the member groups.
type AppUniform struct {
	topo   *topology.Topology
	first  int
	groups int
}

// NewAppUniform returns uniform traffic over the allocation
// [first, first+groups) (group numbers wrap around).
func NewAppUniform(t *topology.Topology, first, groups int) *AppUniform {
	if groups <= 0 || groups > t.NumGroups() {
		panic(fmt.Sprintf("traffic: allocation of %d groups out of range [1,%d]", groups, t.NumGroups()))
	}
	return &AppUniform{topo: t, first: ((first % t.NumGroups()) + t.NumGroups()) % t.NumGroups(), groups: groups}
}

// Name implements Pattern.
func (a *AppUniform) Name() string {
	return fmt.Sprintf("APP[%d+%d]", a.first, a.groups)
}

// Member reports whether a node belongs to the allocation.
func (a *AppUniform) Member(node int) bool {
	g := a.topo.NodeGroup(node)
	d := ((g - a.first) + a.topo.NumGroups()) % a.topo.NumGroups()
	return d < a.groups
}

// Dest implements Pattern. It returns -1 for non-member sources.
func (a *AppUniform) Dest(src int, rnd *rng.Source) int {
	if !a.Member(src) {
		return -1
	}
	for {
		g := (a.first + rnd.Intn(a.groups)) % a.topo.NumGroups()
		d := randomNode(a.topo, g, rnd)
		if d != src {
			return d
		}
	}
}

// Permutation is a fixed random node permutation: every source always sends
// to the same uniformly drawn partner. Included as an extra pattern for the
// examples and ablations.
type Permutation struct {
	dest []int
}

// NewPermutation draws a random fixed-pairing permutation without fixed
// points (a derangement in expectation; self-mappings are re-drawn).
func NewPermutation(t *topology.Topology, rnd *rng.Source) *Permutation {
	perm := make([]int, t.NumNodes())
	rnd.Perm(perm)
	Derange(perm)
	return &Permutation{dest: perm}
}

// Derange removes the fixed points of a permutation in place by swapping
// each self-mapping with its next index — shared by the node-level PERM
// pattern and the workload compiler's rank-level pairings.
func Derange(perm []int) {
	n := len(perm)
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
}

// Name implements Pattern.
func (*Permutation) Name() string { return "PERM" }

// Dest implements Pattern.
func (p *Permutation) Dest(src int, _ *rng.Source) int { return p.dest[src] }

func randomNode(t *topology.Topology, group int, rnd *rng.Source) int {
	p := t.Params()
	perGroup := p.A * p.P
	return group*perGroup + rnd.Intn(perGroup)
}

// ByName builds a pattern from a command-line name: "UN", "ADV+<i>" (or
// "ADV1"), "ADVC", "ADVC<k>", "PERM".
func ByName(t *topology.Topology, name string, rnd *rng.Source) (Pattern, error) {
	u := strings.ToUpper(strings.TrimSpace(name))
	switch {
	case u == "UN" || u == "UNIFORM":
		return NewUniform(t), nil
	case u == "PERM" || u == "PERMUTATION":
		return NewPermutation(t, rnd), nil
	case u == "TORNADO":
		return NewTornado(t), nil
	case u == "BITREV":
		return NewBitReverse(t), nil
	case u == "SHUFFLE":
		return NewGroupShuffle(t), nil
	case u == "ADVC":
		return NewADVc(t), nil
	case strings.HasPrefix(u, "ADVC"):
		k, err := strconv.Atoi(u[len("ADVC"):])
		if err != nil {
			return nil, fmt.Errorf("traffic: bad ADVc group count in %q", name)
		}
		if k <= 0 || k >= t.NumGroups() {
			return nil, fmt.Errorf("traffic: ADVc group count %d out of range [1,%d)", k, t.NumGroups())
		}
		return NewConsecutive(t, k), nil
	case strings.HasPrefix(u, "ADV"):
		s := strings.TrimPrefix(u[len("ADV"):], "+")
		if s == "" {
			s = "1"
		}
		off, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("traffic: bad ADV offset in %q", name)
		}
		if off <= 0 || off >= t.NumGroups() {
			return nil, fmt.Errorf("traffic: ADV offset %d out of range [1,%d)", off, t.NumGroups())
		}
		return NewAdversarial(t, off), nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q (known: %s)", name, strings.Join(KnownNames(), ", "))
	}
}

// KnownNames lists the pattern name forms ByName accepts, for error
// messages and flag usage strings.
func KnownNames() []string {
	return []string{"UN", "ADV+<i>", "ADVc", "ADVc<k>", "PERM", "TORNADO", "BITREV", "SHUFFLE"}
}

// Validate checks a pattern name against the topology without keeping the
// built pattern, so tools can reject typos and out-of-range parameters at
// flag time instead of deep inside a run.
func Validate(t *topology.Topology, name string) error {
	_, err := ByName(t, name, rng.New(1))
	return err
}

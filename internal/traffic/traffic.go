// Package traffic provides the synthetic traffic patterns of the paper's
// evaluation (Section IV-A): uniform random (UN), adversarial (ADV+i) and
// the new adversarial-consecutive (ADVc) pattern of Section III, plus a
// generalisation selectable as ADVc<k> — a consecutive pattern with an
// arbitrary group count — and a few classic extras, each built by name
// (ByName). The job-scheduler use case motivating ADVc is a workload
// (workload.AppSpec), the simulator's other kind of traffic, not a pattern
// of this package.
//
// A Pattern maps a source node to a destination node, one draw per packet,
// at every node and every cycle alike. Patterns never return the source
// itself.
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

// uniform is the UN pattern: every packet targets a uniform random node of
// the whole network (excluding the source node itself).
type uniform struct {
	topo *topology.Topology
}

// newUniform returns the UN pattern.
func newUniform(t *topology.Topology) *uniform { return &uniform{topo: t} }

// Name implements Pattern.
func (*uniform) Name() string { return "UN" }

// Dest implements Pattern.
func (u *uniform) Dest(src int, rnd *rng.Source) int {
	n := u.topo.NumNodes()
	d := rnd.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// adversarial is the ADV+i pattern: every node of group g sends all its
// traffic to uniform nodes of group g+offset. With offset 1 this is the
// paper's ADV+1.
type adversarial struct {
	topo   *topology.Topology
	offset int
}

// newAdversarial returns the ADV+offset pattern. offset must be in
// [1, groups).
func newAdversarial(t *topology.Topology, offset int) *adversarial {
	if offset <= 0 || offset >= t.NumGroups() {
		panic(fmt.Sprintf("traffic: ADV offset %d out of range [1,%d)", offset, t.NumGroups()))
	}
	return &adversarial{topo: t, offset: offset}
}

// Name implements Pattern.
func (a *adversarial) Name() string { return "ADV+" + strconv.Itoa(a.offset) }

// Dest implements Pattern.
func (a *adversarial) Dest(src int, rnd *rng.Source) int {
	g := (a.topo.NodeGroup(src) + a.offset) % a.topo.NumGroups()
	return randomNode(a.topo, g, rnd)
}

// consecutive is the ADVc pattern of Section III generalised to k
// destination groups: every node sends each packet to a uniform node in one
// of the k consecutive groups (+1..+k) after its own. With k = h (the
// default, newADVc) all minimal paths of a group meet in the single
// bottleneck router that owns the +1..+h global links under the palmtree
// arrangement.
type consecutive struct {
	topo *topology.Topology
	k    int
}

// newADVc returns the paper's ADVc pattern (k = h).
func newADVc(t *topology.Topology) *consecutive {
	return newConsecutive(t, t.Params().H)
}

// newConsecutive returns the ADVc-style pattern with k destination groups.
func newConsecutive(t *topology.Topology, k int) *consecutive {
	if k <= 0 || k >= t.NumGroups() {
		panic(fmt.Sprintf("traffic: ADVc group count %d out of range [1,%d)", k, t.NumGroups()))
	}
	return &consecutive{topo: t, k: k}
}

// Name implements Pattern.
func (c *consecutive) Name() string {
	if c.k == c.topo.Params().H {
		return "ADVc"
	}
	return fmt.Sprintf("ADVc(%d)", c.k)
}

// Dest implements Pattern.
func (c *consecutive) Dest(src int, rnd *rng.Source) int {
	g := (c.topo.NodeGroup(src) + 1 + rnd.Intn(c.k)) % c.topo.NumGroups()
	return randomNode(c.topo, g, rnd)
}

// permutation is a fixed random node permutation: every source always sends
// to the same uniformly drawn partner. Included as an extra pattern for the
// workloads' jobs and dfsim, selectable by name (PERM) through ByName.
type permutation struct {
	dest []int
}

// newPermutation draws a random fixed-pairing permutation without fixed
// points (a derangement in expectation; self-mappings are re-drawn).
func newPermutation(t *topology.Topology, rnd *rng.Source) *permutation {
	perm := make([]int, t.NumNodes())
	rnd.Perm(perm)
	Derange(perm)
	return &permutation{dest: perm}
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
func (*permutation) Name() string { return "PERM" }

// Dest implements Pattern.
func (p *permutation) Dest(src int, _ *rng.Source) int { return p.dest[src] }

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
		return newUniform(t), nil
	case u == "PERM" || u == "PERMUTATION":
		return newPermutation(t, rnd), nil
	case u == "TORNADO":
		return newTornado(t), nil
	case u == "BITREV":
		return newBitReverse(t), nil
	case u == "SHUFFLE":
		return newGroupShuffle(t), nil
	case u == "ADVC":
		return newADVc(t), nil
	case strings.HasPrefix(u, "ADVC"):
		k, err := strconv.Atoi(u[len("ADVC"):])
		if err != nil {
			return nil, fmt.Errorf("traffic: bad ADVc group count in %q", name)
		}
		if k <= 0 || k >= t.NumGroups() {
			return nil, fmt.Errorf("traffic: ADVc group count %d out of range [1,%d)", k, t.NumGroups())
		}
		return newConsecutive(t, k), nil
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
		return newAdversarial(t, off), nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q (known: %s)", name, strings.Join(knownNames(), ", "))
	}
}

// knownNames lists the pattern name forms ByName accepts, for error
// messages and flag usage strings.
func knownNames() []string {
	return []string{"UN", "ADV+<i>", "ADVc", "ADVc<k>", "PERM", "TORNADO", "BITREV", "SHUFFLE"}
}

// Validate checks a pattern name against the topology without keeping the
// built pattern, so tools can reject typos and out-of-range parameters at
// flag time instead of deep inside a run.
func Validate(t *topology.Topology, name string) error {
	_, err := ByName(t, name, rng.New(1))
	return err
}

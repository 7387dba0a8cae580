package traffic

import (
	"math/bits"

	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// This file holds the classic node-level synthetic patterns found in
// interconnect simulators beyond the three the paper evaluates. They are
// useful for ablations and for validating the simulator against known
// behaviours (e.g. tornado traffic is the group-level worst case for
// minimal routing on any ring-like arrangement).

// Tornado sends all traffic from group g to group g + floor(G/2): the
// maximum-distance adversarial pattern. On a canonical Dragonfly it is an
// ADV+k instance, provided for convenience under its conventional name.
func newTornado(t *topology.Topology) *adversarial {
	return newAdversarial(t, t.NumGroups()/2)
}

// bitReverse is the node-level bit-reversal permutation: node i sends to
// the node whose index is i's bit pattern reversed within the smallest
// power of two covering the network; indices that land outside the node
// range fall back to a deterministic fold. Exercise: unlike UN it is a
// fixed permutation, so per-link load is deterministic.
type bitReverse struct {
	topo  *topology.Topology
	width uint
}

// newBitReverse builds the bit-reversal pattern.
func newBitReverse(t *topology.Topology) *bitReverse {
	n := t.NumNodes()
	width := uint(bits.Len(uint(n - 1)))
	return &bitReverse{topo: t, width: width}
}

// Name implements Pattern.
func (*bitReverse) Name() string { return "BITREV" }

// Dest implements Pattern.
func (b *bitReverse) Dest(src int, _ *rng.Source) int {
	n := b.topo.NumNodes()
	d := int(bits.Reverse(uint(src)) >> (bits.UintSize - b.width))
	d %= n
	if d == src {
		d = (d + n/2) % n
	}
	return d
}

// groupShuffle sends traffic from group g to group (g*2+1) mod G with a
// uniform node inside — a shuffle-style pattern that spreads bottlenecks
// across different routers of each group (unlike ADVc, which concentrates
// them on one).
type groupShuffle struct {
	topo *topology.Topology
}

// newGroupShuffle builds the shuffle pattern.
func newGroupShuffle(t *topology.Topology) *groupShuffle {
	return &groupShuffle{topo: t}
}

// Name implements Pattern.
func (*groupShuffle) Name() string { return "SHUFFLE" }

// Dest implements Pattern.
func (s *groupShuffle) Dest(src int, rnd *rng.Source) int {
	g := s.topo.NodeGroup(src)
	dg := (2*g + 1) % s.topo.NumGroups()
	if dg == g {
		dg = (dg + 1) % s.topo.NumGroups()
	}
	for {
		d := randomNode(s.topo, dg, rnd)
		if d != src {
			return d
		}
	}
}

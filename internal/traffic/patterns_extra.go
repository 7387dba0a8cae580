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
func NewTornado(t *topology.Topology) *Adversarial {
	return NewAdversarial(t, t.NumGroups()/2)
}

// BitReverse is the node-level bit-reversal permutation: node i sends to
// the node whose index is i's bit pattern reversed within the smallest
// power of two covering the network; indices that land outside the node
// range fall back to a deterministic fold. Exercise: unlike UN it is a
// fixed permutation, so per-link load is deterministic.
type BitReverse struct {
	topo  *topology.Topology
	width uint
}

// NewBitReverse builds the bit-reversal pattern.
func NewBitReverse(t *topology.Topology) *BitReverse {
	n := t.NumNodes()
	width := uint(bits.Len(uint(n - 1)))
	return &BitReverse{topo: t, width: width}
}

// Name implements Pattern.
func (*BitReverse) Name() string { return "BITREV" }

// Dest implements Pattern.
func (b *BitReverse) Dest(src int, _ *rng.Source) int {
	n := b.topo.NumNodes()
	d := int(bits.Reverse(uint(src)) >> (bits.UintSize - b.width))
	d %= n
	if d == src {
		d = (d + n/2) % n
	}
	return d
}

// GroupShuffle sends traffic from group g to group (g*2+1) mod G with a
// uniform node inside — a shuffle-style pattern that spreads bottlenecks
// across different routers of each group (unlike ADVc, which concentrates
// them on one).
type GroupShuffle struct {
	topo *topology.Topology
}

// NewGroupShuffle builds the shuffle pattern.
func NewGroupShuffle(t *topology.Topology) *GroupShuffle {
	return &GroupShuffle{topo: t}
}

// Name implements Pattern.
func (*GroupShuffle) Name() string { return "SHUFFLE" }

// Dest implements Pattern.
func (s *GroupShuffle) Dest(src int, rnd *rng.Source) int {
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

package dragonfly

import (
	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// rngSource returns a fixed-seed source for benchmarks.
func rngSource() *rng.Source { return rng.New(12345) }

// newBenchPacket builds a representative ADVc packet for decision
// benchmarks: injected at the bottleneck router, destined one group ahead.
func newBenchPacket(topo *topology.Topology) *packet.Packet {
	idx, _ := topo.GlobalRouterFor(0, 1) // the router ADVc congests
	bneck := topo.RouterID(0, idx)
	src := topo.NodeID(bneck, 0)
	dst := topo.NodeID(topo.RouterID(1, 0), 0)
	p := &packet.Packet{}
	p.Reset()
	p.Src, p.Dst = int32(src), int32(dst)
	p.Size = 8
	min := topo.MinimalPathLength(src, dst)
	p.MinLocal, p.MinGlobal = uint8(min.Local), uint8(min.Global)
	return p
}

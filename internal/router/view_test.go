package router

import (
	"testing"

	"dragonfly/internal/rng"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// An output VC is congested when the phits it has used — its own buffer's
// occupancy plus the downstream space it is owed credits for — exceed the
// threshold, not when they reach it. At CongestionThreshold 0.5 a local
// port's threshold is half of its 32-phit output buffer and 32-phit
// downstream VC: 32 phits, four 8-phit packets, so occupancies a run
// reaches sit on the boundary itself. Every VC of the port is checked, with
// the used phits split between the buffer and the downstream VC in every
// way.
func TestOutputCongestedBoundary(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	mech, err := routing.ByName("MIN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LocalVCs, cfg.GlobalVCs = mech.VCNeeds()
	cfg.CongestionThreshold = 0.5
	c, err := NewCore(Wiring{
		Topo: topo, Cfg: &cfg, Mech: mech, Rng: rng.New(1),
		Latency: tableI,
		Binding: drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	const port = 0
	if c.class[port] != topology.LocalPort {
		t.Fatalf("port %d is a %v port, want a local one", port, c.class[port])
	}
	if thresh := c.threshVC[port]; thresh != 32 {
		t.Fatalf("a local port's threshold at 0.5 is %d phits, want 32", thresh)
	}
	size := int32(cfg.PacketSize)
	v := &c.Views()[0]
	for vc := 0; vc < int(c.nOutVC[port]); vc++ {
		s := &c.outQ[c.vcBase(0, port)+vc]
		for _, used := range []int32{32 - size, 32, 32 + size} {
			for occ := max(0, used-c.downCapVC[port]); occ <= min(used, c.capVC); occ += size {
				s.occVC, s.credits = occ, c.downCapVC[port]-(used-occ)
				if got, want := v.OutputCongested(port, vc), used > 32; got != want {
					t.Errorf("VC %d with %d phits used (%d buffered, %d owed): congested %v, want %v",
						vc, used, occ, used-occ, got, want)
				}
			}
		}
		s.occVC, s.credits = 0, c.downCapVC[port]
	}
}

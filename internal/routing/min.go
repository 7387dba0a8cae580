package routing

import (
	"dragonfly/internal/packet"
	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// minimal is oblivious minimal (MIN) routing: every packet follows the
// unique shortest path (at most local-global-local). It is the paper's
// reference under uniform traffic.
type minimal struct{}

// newMinimal returns the MIN mechanism.
func newMinimal() *minimal { return &minimal{} }

// Name implements Mechanism.
func (*minimal) Name() string { return "MIN" }

// VCNeeds implements Mechanism: l g l needs the three segment VCs.
func (*minimal) VCNeeds() (int, int) { return 3, 1 }

// OnGenerate implements Mechanism; MIN has no per-packet state.
func (*minimal) OnGenerate(*Env, *packet.Packet, *rng.Source) {}

// NextHop implements Mechanism.
func (*minimal) NextHop(env *Env, rv RouterView, p *packet.Packet, _ topology.PortClass, _ *rng.Source) Request {
	port := minimalPort(env, rv.RouterID(), p)
	return Request{Port: port, VC: segmentVC(env, rv.RouterID(), port, p)}
}

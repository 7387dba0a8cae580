package router

import (
	"fmt"
	"math"
)

// Arbitration selects how an output port chooses among competing input
// requests each cycle.
type Arbitration int

const (
	// RoundRobin treats transit and injection requests equally with a
	// rotating priority pointer — the "without transit-over-injection
	// priority" configuration of Section V-C.
	RoundRobin Arbitration = iota
	// TransitOverInjection always grants in-transit traffic before new
	// injections, as in Blue Gene systems and the paper's Section V-A/B
	// configuration.
	TransitOverInjection
	// AgeBased grants the oldest packet (smallest generation time). This
	// is the explicit fairness mechanism (age arbitration, Abts &
	// Weisser SC'07) that the paper's conclusions call for; it is our
	// implementation of the paper's future-work extension.
	AgeBased
)

// String returns a short arbitration name.
func (a Arbitration) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case TransitOverInjection:
		return "transit-priority"
	case AgeBased:
		return "age"
	default:
		return fmt.Sprintf("arbitration(%d)", int(a))
	}
}

// Params are the router values a run chooses; the rest of a Config is
// Table I's.
type Params struct {
	// Arbitration is the output arbiter policy.
	Arbitration Arbitration
	// InjectionQueuePackets caps the per-node source queue; generation
	// stalls (and is counted as backlogged) when the queue is full.
	InjectionQueuePackets int
	// CongestionThreshold is the occupancy fraction above which an
	// output port reports congested to adaptive routing (Table I: 43%).
	CongestionThreshold float64
}

// Config is the router a network is built with: the Params its run chose,
// Table I's fixed microarchitecture, which only DefaultConfig fills, and
// the VC counts of the network's mechanism.
type Config struct {
	Params
	// PacketSize in phits (Table I: 8).
	PacketSize int
	// PipelineCycles is the router pipeline latency applied to every
	// packet entering an input buffer (Table I: 5).
	PipelineCycles int
	// speedup is the crossbar frequency multiplier over the link speed
	// (Table I: 2×). A packet occupies its input port and the output
	// crossbar slot for ceil(PacketSize/speedup) cycles (CrossbarCycles).
	speedup int
	// OutputBufferPhits is the per-output-port buffer (Table I: 32).
	OutputBufferPhits int
	// LocalVCPhits / GlobalVCPhits are input buffer capacities per VC
	// (Table I: 32 local and injection, 256 global).
	LocalVCPhits  int
	GlobalVCPhits int
	// AllocIterations is the number of matching iterations of the
	// iterative separable allocator per cycle (Table I: 2).
	AllocIterations int
	// LocalVCs / GlobalVCs are the virtual channel counts per port class:
	// the mechanism's VCNeeds.
	LocalVCs  int
	GlobalVCs int
}

// DefaultConfig returns the Table I router with round-robin arbitration
// and 3 local and 2 global VCs.
func DefaultConfig() Config {
	return Config{
		Params: Params{
			Arbitration:           RoundRobin,
			InjectionQueuePackets: 256,
			CongestionThreshold:   0.43,
		},
		PacketSize:        8,
		PipelineCycles:    5,
		speedup:           2,
		OutputBufferPhits: 32,
		LocalVCPhits:      32,
		GlobalVCPhits:     256,
		AllocIterations:   2,
		LocalVCs:          3,
		GlobalVCs:         2,
	}
}

// CrossbarCycles returns how long a packet occupies the crossbar.
func (c Config) CrossbarCycles() int {
	return (c.PacketSize + c.speedup - 1) / c.speedup
}

// SerialCycles returns how long a packet occupies a link (1 phit/cycle).
func (c Config) SerialCycles() int { return c.PacketSize }

// Validate reports the values of c the core cannot run, including those
// that do not fit where it stores them: a credit in flight carries its VC in
// one byte, and the core keeps a source queue's phits in 32 bits. Table I's
// fixed values fit by construction. Link latencies are the latency model's
// (topology.ValidateLatency).
func (c Config) Validate() error {
	switch {
	case c.LocalVCs <= 0 || c.GlobalVCs <= 0:
		return fmt.Errorf("router: VC counts must be positive")
	case c.LocalVCs > 256 || c.GlobalVCs > 256:
		return fmt.Errorf("router: at most 256 VCs per port (a credit in flight carries its VC in one byte)")
	case c.InjectionQueuePackets <= 0:
		return fmt.Errorf("router: injection queue must hold at least one packet")
	case c.InjectionQueuePackets > math.MaxInt32/c.PacketSize:
		return fmt.Errorf("router: injection queue of %d packets exceeds %d phits", c.InjectionQueuePackets, math.MaxInt32)
	case c.CongestionThreshold <= 0 || c.CongestionThreshold >= 1:
		return fmt.Errorf("router: congestion threshold must be in (0,1)")
	}
	return nil
}

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

// Config gathers the microarchitectural parameters of Table I.
type Config struct {
	// PacketSize in phits (Table I: 8).
	PacketSize int
	// PipelineCycles is the router pipeline latency applied to every
	// packet entering an input buffer (Table I: 5).
	PipelineCycles int
	// Speedup is the crossbar frequency multiplier over the link speed
	// (Table I: 2×). A packet occupies its input port and the output
	// crossbar slot for ceil(PacketSize/Speedup) cycles.
	Speedup int
	// OutputBufferPhits is the per-output-port buffer (Table I: 32).
	OutputBufferPhits int
	// LocalVCPhits / GlobalVCPhits are input buffer capacities per VC
	// (Table I: 32 local and injection, 256 global).
	LocalVCPhits  int
	GlobalVCPhits int
	// LocalVCs / GlobalVCs are the virtual channel counts per port class.
	LocalVCs  int
	GlobalVCs int
	// LocalLatency / GlobalLatency are link latencies in cycles
	// (Table I: 10 and 100).
	LocalLatency  int
	GlobalLatency int
	// InjectionQueuePackets caps the per-node source queue; generation
	// stalls (and is counted as backlogged) when the queue is full.
	InjectionQueuePackets int
	// Arbitration is the output arbiter policy.
	Arbitration Arbitration
	// AllocIterations is the number of matching iterations of the
	// iterative separable allocator per cycle.
	AllocIterations int
	// CongestionThreshold is the occupancy fraction above which an
	// output port reports congested to adaptive routing (Table I: 43%).
	CongestionThreshold float64
}

// DefaultConfig returns the Table I router parameters with round-robin
// arbitration.
func DefaultConfig() Config {
	return Config{
		PacketSize:            8,
		PipelineCycles:        5,
		Speedup:               2,
		OutputBufferPhits:     32,
		LocalVCPhits:          32,
		GlobalVCPhits:         256,
		LocalVCs:              3,
		GlobalVCs:             2,
		LocalLatency:          10,
		GlobalLatency:         100,
		InjectionQueuePackets: 256,
		Arbitration:           RoundRobin,
		AllocIterations:       2,
		CongestionThreshold:   0.43,
	}
}

// CrossbarCycles returns how long a packet occupies the crossbar.
func (c Config) CrossbarCycles() int {
	return (c.PacketSize + c.Speedup - 1) / c.Speedup
}

// SerialCycles returns how long a packet occupies a link (1 phit/cycle).
func (c Config) SerialCycles() int { return c.PacketSize }

// Validate reports configuration errors, including every value that does
// not fit where it is stored: a packet records its size in 16 bits, and the
// core keeps link latencies and a port's buffer and source-queue phits in
// 32 bits.
func (c Config) Validate() error {
	switch {
	case c.PacketSize <= 0:
		return fmt.Errorf("router: packet size must be positive")
	case c.PacketSize > math.MaxInt16:
		return fmt.Errorf("router: packet size %d exceeds the %d phits a packet can record", c.PacketSize, math.MaxInt16)
	case c.PipelineCycles < 0:
		return fmt.Errorf("router: negative pipeline latency")
	case c.Speedup <= 0:
		return fmt.Errorf("router: speedup must be positive")
	case c.OutputBufferPhits < c.PacketSize:
		return fmt.Errorf("router: output buffer smaller than one packet")
	case c.LocalVCPhits < c.PacketSize || c.GlobalVCPhits < c.PacketSize:
		return fmt.Errorf("router: input VC buffer smaller than one packet")
	case c.LocalVCs <= 0 || c.GlobalVCs <= 0:
		return fmt.Errorf("router: VC counts must be positive")
	case c.LocalVCs > 256 || c.GlobalVCs > 256:
		return fmt.Errorf("router: at most 256 VCs per port (a credit in flight carries its VC in one byte)")
	case !portFits(c.OutputBufferPhits, c.LocalVCs, c.LocalVCPhits) ||
		!portFits(c.OutputBufferPhits, c.GlobalVCs, c.GlobalVCPhits):
		return fmt.Errorf("router: a port's buffers (output buffer plus VCs × VC buffer) exceed %d phits", math.MaxInt32)
	case c.LocalLatency <= 0 || c.GlobalLatency <= 0:
		return fmt.Errorf("router: link latencies must be positive")
	case c.LocalLatency > math.MaxInt32 || c.GlobalLatency > math.MaxInt32:
		return fmt.Errorf("router: link latencies must be at most %d cycles", math.MaxInt32)
	case c.InjectionQueuePackets <= 0:
		return fmt.Errorf("router: injection queue must hold at least one packet")
	case c.InjectionQueuePackets > math.MaxInt32/c.PacketSize:
		return fmt.Errorf("router: injection queue of %d packets exceeds %d phits", c.InjectionQueuePackets, math.MaxInt32)
	case c.AllocIterations <= 0:
		return fmt.Errorf("router: allocator iterations must be positive")
	case c.CongestionThreshold <= 0 || c.CongestionThreshold >= 1:
		return fmt.Errorf("router: congestion threshold must be in (0,1)")
	}
	return nil
}

// portFits reports whether a port's buffer space — an output buffer of out
// phits plus vcs (≤ 256) input VCs of vcPhits each — fits in 32 bits.
func portFits(out, vcs, vcPhits int) bool {
	return out <= math.MaxInt32 && vcPhits <= math.MaxInt32 &&
		int64(out)+int64(vcs)*int64(vcPhits) <= math.MaxInt32
}

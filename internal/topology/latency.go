package topology

import (
	"fmt"
	"math"
	"strings"
)

// LatencyModel assigns a propagation latency, in cycles, to every link of a
// Dragonfly instance. The simulator resolves one model per run and queries
// it once per link at network build time, so latency is a per-link runtime
// parameter rather than a pair of compile-shaped constants — the
// heterogeneous-topology groundwork: irregular cable lengths, per-group
// skew, or future hierarchical layouts all reduce to a LatencyModel.
//
// Latencies must be positive and, for physical plausibility, symmetric:
// both directions of a cable report the same latency. Both provided models
// are symmetric by construction; custom models should be too (nothing in
// the simulator breaks otherwise, but zero-load analysis assumes it).
type LatencyModel interface {
	// Name returns the model's registry name.
	Name() string
	// LocalLatency returns the latency of the local link between two
	// routers of the same group.
	LocalLatency(t *Topology, src, dst int) int
	// GlobalLatency returns the latency of the global link between two
	// routers of different groups.
	GlobalLatency(t *Topology, src, dst int) int
}

// UniformLatency is the Table I model: one constant per link class. It is
// the default and reproduces the seed bit-for-bit.
type UniformLatency struct {
	Local  int // local link latency in cycles (Table I: 10)
	Global int // global link latency in cycles (Table I: 100)
}

// Name implements LatencyModel.
func (UniformLatency) Name() string { return "uniform" }

// LocalLatency implements LatencyModel.
func (m UniformLatency) LocalLatency(*Topology, int, int) int { return m.Local }

// GlobalLatency implements LatencyModel.
func (m UniformLatency) GlobalLatency(*Topology, int, int) int { return m.Global }

// GroupSkewLatency is the first heterogeneous instance: local links stay
// uniform, but a global link's latency grows with the circular distance
// between the two groups it joins — modelling a physical layout where
// groups sit on a ring and cable length (hence time of flight) scales with
// how far apart the cabinets are. The link towards an adjacent group costs
// GlobalBase; every additional unit of group distance adds GlobalStep.
// Circular distance is symmetric, so both directions of a cable agree.
type GroupSkewLatency struct {
	Local      int // local link latency in cycles
	GlobalBase int // global latency towards an adjacent group
	GlobalStep int // extra cycles per unit of circular group distance
}

// Name implements LatencyModel.
func (GroupSkewLatency) Name() string { return "groupskew" }

// LocalLatency implements LatencyModel.
func (m GroupSkewLatency) LocalLatency(*Topology, int, int) int { return m.Local }

// GlobalLatency implements LatencyModel.
func (m GroupSkewLatency) GlobalLatency(t *Topology, src, dst int) int {
	gs, gd := t.RouterGroup(src), t.RouterGroup(dst)
	d := t.groupOffset(gs, gd)
	if back := t.NumGroups() - d; back < d {
		d = back
	}
	return m.GlobalBase + (d-1)*m.GlobalStep
}

// ValidateLatency reports, by arithmetic only, a link latency m assigns on a
// topology of p outside [1, math.MaxInt32] cycles, the range the router
// core stores a latency in: UniformLatency's two constants, and
// GroupSkewLatency's local links, adjacent-group links and far links, which
// span ⌊groups/2⌋ groups. A model of another type is checked link by link
// when a network is wired.
func ValidateLatency(m LatencyModel, p Params) error {
	var lo, hi int64
	switch m := m.(type) {
	case UniformLatency:
		lo, hi = int64(min(m.Local, m.Global)), int64(max(m.Local, m.Global))
	case GroupSkewLatency:
		// A base or step outside the int32 range puts the far links
		// outside it too, so clamping both keeps the sum in int64 and
		// the verdict.
		base := min(max(int64(m.GlobalBase), math.MinInt32), math.MaxInt32+1)
		step := min(max(int64(m.GlobalStep), math.MinInt32), math.MaxInt32+1)
		far := base + int64(p.Groups()/2-1)*step
		lo = min(int64(m.Local), int64(m.GlobalBase), far)
		hi = max(int64(m.Local), int64(m.GlobalBase), far)
	default:
		return nil
	}
	switch {
	case lo <= 0:
		return fmt.Errorf("topology: link latencies must be positive")
	case hi > math.MaxInt32:
		return fmt.Errorf("topology: link latencies must be at most %d cycles", math.MaxInt32)
	}
	return nil
}

// MinimalPathLinkLatency prices the links of the unique minimal path
// between two routers under a latency model: [local hop to the exit
// router] + global hop + [local hop from the entry router], each term
// present only when its hop is (0 for the same router, one local-link
// latency within a group).
func MinimalPathLinkLatency(t *Topology, m LatencyModel, rs, rd int) int64 {
	if rs == rd {
		return 0
	}
	gs, gd := t.RouterGroup(rs), t.RouterGroup(rd)
	if gs == gd {
		return int64(m.LocalLatency(t, rs, rd))
	}
	exitIdx, _ := t.GlobalRouterFor(gs, gd)
	exit := t.RouterID(gs, exitIdx)
	entryIdx, _ := t.GlobalRouterFor(gd, gs)
	entry := t.RouterID(gd, entryIdx)
	lat := int64(m.GlobalLatency(t, exit, entry))
	if exit != rs {
		lat += int64(m.LocalLatency(t, rs, exit))
	}
	if entry != rd {
		lat += int64(m.LocalLatency(t, entry, rd))
	}
	return lat
}

// KnownLatencyModels lists the model names LatencyModelByName accepts.
func KnownLatencyModels() []string { return []string{"uniform", "groupskew"} }

// LatencyModelByName resolves a named latency model preset from the base
// class latencies (the Table I pair, or the CLI's -local-lat/-global-lat).
// "uniform" is the default constant model; "groupskew" derives its
// per-distance step as max(1, global/10), so at the paper's 100-cycle
// global latency distance-skewed cables span 100..~460 cycles at h=6.
func LatencyModelByName(name string, local, global int) (LatencyModel, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "uniform":
		return UniformLatency{Local: local, Global: global}, nil
	case "groupskew":
		step := global / 10
		if step < 1 {
			step = 1
		}
		return GroupSkewLatency{Local: local, GlobalBase: global, GlobalStep: step}, nil
	default:
		return nil, fmt.Errorf("topology: unknown latency model %q (known: %s)",
			name, strings.Join(KnownLatencyModels(), ", "))
	}
}

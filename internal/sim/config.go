// Package sim assembles the full simulator: it wires a Dragonfly topology
// into routers and links, drives packet generation, runs the warm-up and
// measurement phases of Section IV-A (one group at a time through windows
// of a global-link latency, on one worker or several), and collects the
// paper's performance and fairness metrics.
package sim

import (
	"fmt"
	"math"

	"dragonfly/internal/router"
	"dragonfly/internal/routing"
	"dragonfly/internal/telemetry"
	"dragonfly/internal/topology"
)

// Config describes one simulation run.
type Config struct {
	// Topology selects the Dragonfly instance.
	Topology topology.Params
	// Mechanism is the routing mechanism name (see routing.Names), e.g.
	// "MIN", "Obl-CRG", "Src-RRG", "In-Trns-MM".
	Mechanism string
	// Pattern is the traffic pattern name (see traffic.ByName), e.g.
	// "UN", "ADV+1", "ADVc".
	Pattern string
	// Load is the offered load in phits/(node·cycle); packets are
	// generated by a Bernoulli process of rate Load/PacketSize.
	Load float64
	// WarmupCycles precede measurement; MeasureCycles are recorded
	// (Table: 15,000 at full size).
	WarmupCycles  int64
	MeasureCycles int64
	// Seed drives every random stream of the run.
	Seed uint64
	// Workers is how many workers share the groups of the network (clamped
	// to the group and CPU counts). Results are bit-identical for any value.
	Workers int

	// LatencyModel assigns per-link propagation latencies at network build
	// time. nil uses the uniform Table I model built from
	// Router.LocalLatency/GlobalLatency (the seed behaviour, bit-for-bit).
	LatencyModel topology.LatencyModel

	// Router and Routing carry the microarchitectural and routing
	// parameters (defaults are Table I). The virtual channel counts are
	// overridden by the mechanism's requirements at build time.
	Router  router.Config
	Routing routing.Config

	// Probes, when non-nil, samples the network at the probe cadence from
	// the engines' between-cycles hook and reduces the samples into a
	// JSONL time-series plus a run Summary (attached to the Result).
	// Probes are read-only: results are bit-identical with probes on or
	// off, across engines and worker counts. A Probes instance accumulates
	// per-run state — give every run its own; do not share one across the
	// concurrent runs of a sweep.
	Probes *telemetry.Probes
	// Tracer, when non-nil, records a sampled packet trace (grants, link
	// sends, deliveries) through per-router buffers that are safe at any
	// worker count; read it back after the run with Tracer.Events. Like
	// Probes, one Tracer belongs to one run.
	Tracer *telemetry.Tracer
}

// DefaultConfig returns a laptop-scale configuration: a balanced h=2
// Dragonfly (9 groups, 72 nodes) with Table I router parameters, uniform
// traffic under minimal routing at load 0.5.
func DefaultConfig() Config {
	return Config{
		Topology:      topology.Balanced(2),
		Mechanism:     "MIN",
		Pattern:       "UN",
		Load:          0.5,
		WarmupCycles:  2000,
		MeasureCycles: 5000,
		Seed:          1,
		Workers:       1,
		Router:        router.DefaultConfig(),
		Routing:       routing.DefaultConfig(),
	}
}

// PaperConfig returns the full Table I configuration: h=6, 73 groups,
// 5,256 nodes, 15,000 measured cycles.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Topology = topology.Balanced(6)
	c.WarmupCycles = 10000
	c.MeasureCycles = 15000
	return c
}

// Fingerprint names everything of the configuration that changes a run's
// outcome, but the point coordinates a checkpoint keys its records by
// (mechanism, pattern, load, seed) and the worker count results are
// bit-identical across: the topology, the router and routing parameters
// (the uniform link latencies included), the cycle counts and the latency
// model's registry name (its parameters are the router latencies, already
// covered). A checkpoint resumes only under an equal fingerprint.
func (c *Config) Fingerprint() string {
	lat := "default-uniform"
	if c.LatencyModel != nil {
		lat = c.LatencyModel.Name()
	}
	return fmt.Sprintf("topo=%+v router=%+v routing=%+v warm=%d meas=%d lat=%s",
		c.Topology, c.Router, c.Routing, c.WarmupCycles, c.MeasureCycles, lat)
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if c.Load < 0 || math.IsNaN(c.Load) || math.IsInf(c.Load, 0) {
		return fmt.Errorf("sim: load %v is not a finite load ≥ 0", c.Load)
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 {
		return fmt.Errorf("sim: cycles must be positive (warmup %d, measure %d)",
			c.WarmupCycles, c.MeasureCycles)
	}
	if c.WarmupCycles > math.MaxInt64-c.MeasureCycles {
		return fmt.Errorf("sim: warmup %d + measure %d cycles overflows the cycle counter",
			c.WarmupCycles, c.MeasureCycles)
	}
	if c.Workers < 0 {
		return fmt.Errorf("sim: negative worker count %d", c.Workers)
	}
	if _, err := routing.ByName(c.Mechanism); err != nil {
		return err
	}
	return nil
}

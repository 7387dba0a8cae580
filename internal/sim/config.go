// Package sim assembles the full simulator: it wires a Dragonfly topology
// into routers and links, drives packet generation, runs the warm-up and
// measurement phases of Section IV-A (one group at a time through windows
// of a global-link latency, on one worker or several), and collects the
// paper's performance and fairness metrics.
package sim

import (
	"fmt"
	"math"
	"strconv"

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
	// "UN", "ADV+1", "ADVc"; a network built over a workload ignores it.
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
	// Workers is how many workers share the groups of the network, at most
	// the group count and GOMAXPROCS. Results are bit-identical for any value.
	Workers int

	// LatencyModel assigns per-link propagation latencies at network build
	// time (Table I: uniform, 10 local and 100 global cycles).
	LatencyModel topology.LatencyModel

	// Router and Routing carry the router and routing values a run chooses
	// (defaults are Table I); the in-transit congestion threshold is
	// Router's. The build runs them on Table I's router (router.Config),
	// with the mechanism's VCNeeds.
	Router  router.Params
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
		LatencyModel:  topology.UniformLatency{Local: 10, Global: 100},
		Router:        router.DefaultConfig().Params,
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

// idPart is a part of a configuration's identity: the fields that decide
// what a run computes, which identity writes once, each under a wire name of
// its own. Every key selects parts (DESIGN.md, "Configuration identity").
// Workers, Probes and Tracer are in no part.
type idPart uint8

const (
	idTopology idPart = 1 << iota // the topology and the latency model
	idSeed
	idPoint // the mechanism and the pattern
	idLoad
	idParams // the router and routing parameters
	idCycles // the warm-up and measured cycle counts
)

// Fingerprint names everything of the configuration that changes a run's
// outcome, but the point coordinates a checkpoint keys its records by
// (mechanism, pattern, load, seed). A checkpoint resumes only under an
// equal fingerprint.
func (c *Config) Fingerprint() string { return c.identity(idTopology | idParams | idCycles) }

// TemplateKey names the construction template of cfg: everything a restore
// from it pins (Snapshot.compatibleWith), the load excluded.
func TemplateKey(cfg *Config) string { return cfg.identity(idTopology | idSeed | idPoint | idParams) }

// identity writes the fields of the selected parts as space-separated
// key=value pairs in a fixed order: numbers in decimal (%g is the shortest
// form, strconv's 'g', -1), arbitration and arrangement by name.
func (c *Config) identity(parts idPart) string {
	b := make([]byte, 0, 512)
	t, r, rt := &c.Topology, &c.Router, &c.Routing
	if parts&idTopology != 0 {
		b = fmt.Appendf(b, " p=%d a=%d h=%d arrangement=%s latency_model=", t.P, t.A, t.H, t.Arrangement)
		b = appendLatency(b, c)
	}
	if parts&idPoint != 0 {
		b = fmt.Appendf(b, " mechanism=%s pattern=%s", c.Mechanism, c.Pattern)
	}
	if parts&idLoad != 0 {
		b = fmt.Appendf(b, " load=%g", c.Load)
	}
	if parts&idSeed != 0 {
		b = fmt.Appendf(b, " seed=%d", c.Seed)
	}
	if parts&idCycles != 0 {
		b = fmt.Appendf(b, " warmup=%d measure=%d", c.WarmupCycles, c.MeasureCycles)
	}
	if parts&idParams != 0 {
		b = fmt.Appendf(b, " inj_queue=%d arbitration=%s threshold=%g olm=%t",
			r.InjectionQueuePackets, r.Arbitration, r.CongestionThreshold, rt.LocalMisroute)
	}
	return string(b[1:])
}

// appendLatency appends the latency-model identity of a configuration: the
// registry name plus the parameters, so two models of one name with
// different constants do not alias. A model from outside the registry
// prints its value positionally; no model (which Validate refuses) prints
// "none".
func appendLatency(b []byte, c *Config) []byte {
	switch m := c.LatencyModel.(type) {
	case nil:
		return append(b, "none"...)
	case topology.UniformLatency:
		b = strconv.AppendInt(append(b, "uniform(local="...), int64(m.Local), 10)
		b = strconv.AppendInt(append(b, ",global="...), int64(m.Global), 10)
		return append(b, ')')
	case topology.GroupSkewLatency:
		b = strconv.AppendInt(append(b, "groupskew(local="...), int64(m.Local), 10)
		b = strconv.AppendInt(append(b, ",global_base="...), int64(m.GlobalBase), 10)
		b = strconv.AppendInt(append(b, ",global_step="...), int64(m.GlobalStep), 10)
		return append(b, ')')
	}
	return fmt.Appendf(b, "%s:%v", c.LatencyModel.Name(), c.LatencyModel)
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	mech, err := routing.ByName(c.Mechanism)
	if err != nil {
		return err
	}
	if err := c.routerConfig(mech).Validate(); err != nil {
		return err
	}
	if c.LatencyModel == nil {
		return fmt.Errorf("sim: no latency model (Table I's is uniform, 10 and 100 cycles)")
	}
	if err := topology.ValidateLatency(c.LatencyModel, c.Topology); err != nil {
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
	return nil
}

// routerConfig is the router a network of c is built with: Table I's,
// running c.Router, with the VC counts mech's paths need.
func (c *Config) routerConfig(mech routing.Mechanism) router.Config {
	r := router.DefaultConfig()
	r.Params = c.Router
	r.LocalVCs, r.GlobalVCs = mech.VCNeeds()
	return r
}

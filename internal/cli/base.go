package cli

import (
	"flag"
	"fmt"
	"strings"

	"dragonfly/internal/router"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
)

// Base is the one description of everything a run fixes before its
// mechanism, pattern, load and seed are chosen: topology, cycle counts,
// engine workers, arbitration, queue/threshold/misrouting knobs, link
// latencies and the latency model. The df* tools fill it from flags (Flags),
// dfserved from the JSON of an experiments.Spec, which embeds it — the tags
// below are that wire format — and Config is the only code that turns either
// into a sim.Config.
//
// A Base read from JSON spells defaults as zero fields; Normalize makes
// them explicit. Flags writes every field explicitly (so "-warmup 0" stays
// "no warm-up"), and Config takes the fields as they stand.
type Base struct {
	// Topology: balanced dragonfly of H, with optional P/A overrides
	// (0 = balanced: p=h, a=2h) and the global-link arrangement.
	H           int    `json:"h,omitempty"`
	P           int    `json:"p,omitempty"`
	A           int    `json:"a,omitempty"`
	Arrangement string `json:"arrangement,omitempty"`

	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// SimWorkers is the per-simulation engine worker count. Results are
	// bit-identical across it.
	SimWorkers int `json:"sim_workers,omitempty"`

	Arbitration   string  `json:"arbitration,omitempty"` // see ArbitrationByName
	InjQueue      int     `json:"inj_queue,omitempty"`
	Threshold     float64 `json:"threshold,omitempty"`
	LocalMisroute *bool   `json:"olm,omitempty"`
	LocalLat      int     `json:"local_lat,omitempty"`
	GlobalLat     int     `json:"global_lat,omitempty"`
	LatencyModel  string  `json:"latency_model,omitempty"`
}

// defaults are what the common flags default to, which is also what a zero
// field of a description read from JSON means (olm: on).
var defaults = Base{
	H: 3, Arrangement: "palmtree", Warmup: 3000, Measure: 6000, SimWorkers: 1,
	Arbitration: "transit-priority", InjQueue: 256, Threshold: 0.43,
	LocalLat: 10, GlobalLat: 100, LatencyModel: "uniform",
}

// Flags registers the simulation flags shared by every tool on fs, bound to
// b's fields, and returns the builder to call after flag parsing: it folds
// the switches that have no field of their own (-full, -priority/-age,
// -seed) into the description, assembles its sim.Config, and checks the
// tool's mechanism and pattern names against it.
func (b *Base) Flags(fs *flag.FlagSet) func(mechanisms, patterns []string) (sim.Config, error) {
	d := defaults
	fs.IntVar(&b.H, "h", d.H, "global links per router (balanced dragonfly: a=2h, p=h)")
	fs.IntVar(&b.P, "p", 0, "nodes per router (0 = balanced: p=h)")
	fs.IntVar(&b.A, "a", 0, "routers per group (0 = balanced: a=2h)")
	full := fs.Bool("full", false, "use the paper's full-size network (h=6, 5256 nodes) and cycle counts")
	fs.StringVar(&b.Arrangement, "arrangement", d.Arrangement, "global link arrangement: palmtree or consecutive")
	fs.Int64Var(&b.Warmup, "warmup", d.Warmup, "warm-up cycles before measurement")
	fs.Int64Var(&b.Measure, "measure", d.Measure, "measured cycles")
	seed := fs.Uint64("seed", 1, "base random seed")
	fs.IntVar(&b.SimWorkers, "workers", d.SimWorkers, "parallel engine workers per simulation (1 = sequential)")
	priority := fs.Bool("priority", true, "prioritize transit over injection at the allocator")
	age := fs.Bool("age", false, "use age-based arbitration (overrides -priority)")
	fs.IntVar(&b.InjQueue, "inj-queue", d.InjQueue, "injection source queue depth in packets")
	fs.Float64Var(&b.Threshold, "threshold", d.Threshold, "in-transit congestion threshold (fraction)")
	b.LocalMisroute = new(bool)
	fs.BoolVar(b.LocalMisroute, "olm", true, "enable opportunistic (OLM-style) local misrouting")
	fs.IntVar(&b.LocalLat, "local-lat", d.LocalLat, "local link latency in cycles (Table I: 10)")
	fs.IntVar(&b.GlobalLat, "global-lat", d.GlobalLat, "global link latency in cycles (Table I: 100)")
	fs.StringVar(&b.LatencyModel, "latency-model", d.LatencyModel,
		"per-link latency model preset: "+strings.Join(topology.KnownLatencyModels(), ", ")+
			" (groupskew grows global latency with group distance)")
	return func(mechanisms, patterns []string) (sim.Config, error) {
		if *full {
			paper := sim.PaperConfig()
			b.H, b.P, b.A = paper.Topology.H, 0, 0
			b.Warmup, b.Measure = paper.WarmupCycles, paper.MeasureCycles
		}
		b.Arrangement = strings.ToLower(b.Arrangement)
		switch {
		case *age:
			b.Arbitration = router.AgeBased.String()
		case *priority:
			b.Arbitration = router.TransitOverInjection.String()
		default:
			b.Arbitration = router.RoundRobin.String()
		}
		cfg, err := b.Config()
		if err != nil {
			return cfg, err
		}
		cfg.Seed = *seed
		return cfg, ValidateNames(cfg.Topology, mechanisms, patterns)
	}
}

// orDefault gives a zero field its default.
func orDefault[T comparable](field *T, def T) {
	var zero T
	if *field == zero {
		*field = def
	}
}

// Normalize makes the defaults of a Base read from JSON explicit — every
// zero field takes its value from defaults, P and A their balanced values —
// validates the result, and checks the mechanism and pattern names that go
// with it, as the Flags builder does.
func (b *Base) Normalize(mechanisms, patterns []string) error {
	if b.P == 0 && b.A == 0 {
		orDefault(&b.H, defaults.H)
	}
	orDefault(&b.Arrangement, defaults.Arrangement)
	orDefault(&b.Warmup, defaults.Warmup)
	orDefault(&b.Measure, defaults.Measure)
	orDefault(&b.SimWorkers, defaults.SimWorkers)
	orDefault(&b.Arbitration, defaults.Arbitration)
	orDefault(&b.InjQueue, defaults.InjQueue)
	orDefault(&b.Threshold, defaults.Threshold)
	if b.LocalMisroute == nil {
		on := true
		b.LocalMisroute = &on
	}
	orDefault(&b.LocalLat, defaults.LocalLat)
	orDefault(&b.GlobalLat, defaults.GlobalLat)
	orDefault(&b.LatencyModel, defaults.LatencyModel)
	cfg, err := b.Config()
	if err != nil {
		return err
	}
	b.P, b.A = cfg.Topology.P, cfg.Topology.A
	return ValidateNames(cfg.Topology, mechanisms, patterns)
}

// Config assembles the description's sim.Config and validates it
// (sim.Config.Validate), so flags and specs are refused in one place; the
// caller substitutes mechanism, pattern, load and seed. Nothing is built:
// the topology — size included — is checked by arithmetic only, so a
// description from outside the program costs no more than that.
func (b *Base) Config() (sim.Config, error) {
	cfg := sim.DefaultConfig()
	if b.H <= 0 {
		return cfg, fmt.Errorf("h must be positive, got %d", b.H)
	}
	if b.Arrangement != "palmtree" && b.Arrangement != "consecutive" {
		return cfg, fmt.Errorf("unknown arrangement %q", b.Arrangement)
	}
	cfg.Topology = topology.Balanced(b.H)
	if b.P > 0 {
		cfg.Topology.P = b.P
	}
	if b.A > 0 {
		cfg.Topology.A = b.A
	}
	if b.Arrangement == "consecutive" {
		cfg.Topology.Arrangement = topology.Consecutive
	}
	cfg.WarmupCycles = b.Warmup
	cfg.MeasureCycles = b.Measure
	cfg.Workers = b.SimWorkers
	arb, err := ArbitrationByName(b.Arbitration)
	if err != nil {
		return cfg, err
	}
	cfg.Router.Arbitration = arb
	cfg.Router.InjectionQueuePackets = b.InjQueue
	cfg.Router.CongestionThreshold = b.Threshold
	cfg.Routing.CongestionThreshold = b.Threshold
	cfg.Routing.LocalMisroute = b.LocalMisroute == nil || *b.LocalMisroute
	cfg.Router.LocalLatency = b.LocalLat
	cfg.Router.GlobalLatency = b.GlobalLat
	model, err := topology.LatencyModelByName(b.LatencyModel, b.LocalLat, b.GlobalLat)
	if err != nil {
		return cfg, err
	}
	cfg.LatencyModel = model
	return cfg, cfg.Validate()
}

// Package workload models scheduler-placed multi-job traffic: a workload is
// a set of jobs, each with a size in nodes, an allocation policy (the
// classic scheduler placements: consecutive groups, random routers,
// group-spread round-robin), an intra-job traffic pattern remapped onto the
// job's node set, and a phase schedule (steady, bursty on/off, or
// pattern-switching). Compile turns a Spec into a node-level traffic
// pattern plus a node→job map, which the simulator uses to attribute
// throughput, latency and fairness per job as well as globally — the
// paper's Section III observation (realistic placements create adversarial
// patterns that synthetic single-pattern runs understate) as a first-class
// experiment axis.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"dragonfly/internal/topology"
)

// Spec describes a workload: the jobs a scheduler has placed on the
// machine. It is the JSON form read by cmd/dfsim -spec.
type Spec struct {
	Jobs []JobSpec `json:"jobs"`
}

// JobSpec describes one job.
type JobSpec struct {
	// Name labels the job in reports; empty names default to "job<i>".
	Name string `json:"name,omitempty"`
	// Nodes is the job size in compute nodes (≥ 2). Allocation happens at
	// router granularity; when Nodes is not a multiple of p the trailing
	// node slots of the last router stay unused.
	Nodes int `json:"nodes"`
	// Alloc selects the placement policy: "consecutive" (default — fill
	// routers in id order, the policy that turns uniform job traffic into
	// ADVc), "random" (uniform over free routers), or "spread" (round-robin
	// one router per group).
	Alloc string `json:"alloc,omitempty"`
	// FirstGroup is where consecutive/spread scans start (wraps modulo the
	// group count).
	FirstGroup int `json:"first_group,omitempty"`
	// Pattern is the intra-job traffic pattern, drawn over the job's node
	// set by rank: "UN" (default — uniform over the job), "PERM" (fixed
	// random pairing), or "SHIFT+<k>" (rank i sends to rank i+k mod n).
	Pattern string `json:"pattern,omitempty"`
	// Load is the offered load of the job's nodes in phits/(node·cycle);
	// 0 inherits the run's configured load.
	Load float64 `json:"load,omitempty"`
	// Phase is the job's temporal behaviour; the zero value is steady.
	Phase PhaseSpec `json:"phase,omitempty"`
}

// PhaseSpec describes a job's phase schedule.
type PhaseSpec struct {
	// Kind is "steady" (default), "bursty" (on for Duty·Period cycles of
	// every Period), or "switch" (each of Patterns active for Period
	// cycles, cyclically).
	Kind string `json:"kind,omitempty"`
	// Period is the phase length in cycles (bursty, switch).
	Period int64 `json:"period,omitempty"`
	// Duty is the bursty on-fraction in (0, 1]; 1 degenerates to steady.
	Duty float64 `json:"duty,omitempty"`
	// Patterns are the patterns a switch phase cycles through (required
	// for phase=switch, rejected elsewhere).
	Patterns []string `json:"patterns,omitempty"`
}

// Allocation policy names.
const (
	AllocConsecutive = "consecutive"
	AllocRandom      = "random"
	AllocSpread      = "spread"
)

// Phase kind names.
const (
	phaseSteady = "steady"
	phaseBursty = "bursty"
	phaseSwitch = "switch"
)

// AppSpec returns the one-job workload equivalent of the Section III
// application allocation: uniform steady traffic over `groups` consecutive
// groups starting at group `first` — the degenerate case whose group-0
// injection histogram shows the ADVc bottleneck skew.
func AppSpec(params topology.Params, first, groups int) Spec {
	return Spec{Jobs: []JobSpec{{
		Name:       "app",
		Nodes:      groups * params.A * params.P,
		Alloc:      AllocConsecutive,
		FirstGroup: first,
		Pattern:    "UN",
	}}}
}

// normalize fills defaults and checks the spec fields that can be checked
// without a topology.
func (js *JobSpec) normalize(idx int) error {
	if js.Name == "" {
		js.Name = fmt.Sprintf("job%d", idx)
	}
	if js.Nodes < 2 {
		return fmt.Errorf("workload: job %q has %d nodes; a job needs at least 2 to communicate", js.Name, js.Nodes)
	}
	if js.Alloc == "" {
		js.Alloc = AllocConsecutive
	}
	switch js.Alloc {
	case AllocConsecutive, AllocRandom, AllocSpread:
	default:
		return fmt.Errorf("workload: job %q: unknown allocation policy %q (known: %s, %s, %s)",
			js.Name, js.Alloc, AllocConsecutive, AllocRandom, AllocSpread)
	}
	if js.Pattern == "" {
		js.Pattern = "UN"
	}
	if js.Load < 0 {
		return fmt.Errorf("workload: job %q: negative load %v", js.Name, js.Load)
	}
	ph := &js.Phase
	if ph.Kind == "" {
		ph.Kind = phaseSteady
	}
	// Phase fields the kind does not read are rejected rather than silently
	// dropped — a period without phase=bursty would otherwise run steady
	// and measure the wrong workload.
	switch ph.Kind {
	case phaseSteady:
		if ph.Period != 0 || ph.Duty != 0 || len(ph.Patterns) != 0 {
			return fmt.Errorf("workload: job %q: period/duty/patterns set without a phase kind (use phase=%s or phase=%s)",
				js.Name, phaseBursty, phaseSwitch)
		}
	case phaseBursty:
		if ph.Period < 2 {
			return fmt.Errorf("workload: job %q: bursty phase needs period ≥ 2, got %d", js.Name, ph.Period)
		}
		if ph.Duty <= 0 || ph.Duty > 1 {
			return fmt.Errorf("workload: job %q: bursty duty %v out of (0,1]", js.Name, ph.Duty)
		}
		if len(ph.Patterns) != 0 {
			return fmt.Errorf("workload: job %q: patterns are only read by phase=%s (bursty uses the job pattern)",
				js.Name, phaseSwitch)
		}
	case phaseSwitch:
		if ph.Period < 1 {
			return fmt.Errorf("workload: job %q: switch phase needs period ≥ 1, got %d", js.Name, ph.Period)
		}
		if len(ph.Patterns) == 0 {
			return fmt.Errorf("workload: job %q: switch phase needs patterns", js.Name)
		}
		if ph.Duty != 0 {
			return fmt.Errorf("workload: job %q: duty is only read by phase=%s", js.Name, phaseBursty)
		}
	default:
		return fmt.Errorf("workload: job %q: unknown phase kind %q (known: %s, %s, %s)",
			js.Name, ph.Kind, phaseSteady, phaseBursty, phaseSwitch)
	}
	return nil
}

// ParseJob parses the compact one-line job form used by dfsim -job:
//
//	name=a,nodes=72,alloc=spread,first=0,pattern=UN,load=0.3,phase=bursty,period=600,duty=0.5
//
// Switch phases list their patterns "/"-separated: phase=switch,period=500,
// patterns=UN/SHIFT+1. Unknown keys are errors.
func ParseJob(s string) (JobSpec, error) {
	var js JobSpec
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return js, fmt.Errorf("workload: job field %q is not key=value", kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "name":
			js.Name = val
		case "nodes":
			js.Nodes, err = strconv.Atoi(val)
		case "alloc":
			js.Alloc = strings.ToLower(val)
		case "first", "first_group":
			js.FirstGroup, err = strconv.Atoi(val)
		case "pattern":
			js.Pattern = val
		case "load":
			js.Load, err = parseUnit(val)
		case "phase":
			js.Phase.Kind = strings.ToLower(val)
		case "period":
			js.Phase.Period, err = strconv.ParseInt(val, 10, 64)
		case "duty":
			js.Phase.Duty, err = parseUnit(val)
		case "patterns":
			js.Phase.Patterns = strings.Split(val, "/")
		default:
			return js, fmt.Errorf("workload: unknown job field %q", key)
		}
		if err != nil {
			return js, fmt.Errorf("workload: bad value for job field %q: %w", key, err)
		}
	}
	return js, nil
}

// parseUnit parses a load or a duty: a finite number in [0, 1] — a node
// injects at most one phit per cycle, a burst is on for at most its whole
// period. ParseFloat alone lets NaN, Inf and 1e308 through, and NaN then
// slips past every range check downstream (no comparison with it is true).
func parseUnit(val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if !(v >= 0 && v <= 1) {
		return 0, fmt.Errorf("%v is not in [0, 1]", v)
	}
	return v, nil
}

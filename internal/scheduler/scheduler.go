// Package scheduler turns the interference study into a full job-scheduler
// simulator: it drives one simulation through a timed job trace — jobs with
// an arrival cycle, a node count, a duration (a cycle budget or a
// packets-delivered target, or none) and a workload.JobSpec placement/
// traffic description — under a queueing discipline (FCFS, aggressive
// backfill, or EASY reservation-based backfill: see planStarts for the
// decision core shared by all three). Arriving jobs are placed with the
// existing allocation policies (consecutive/random/spread) and departing
// jobs free their routers for recycling.
//
// There is one event loop (loop.go): a sim.Controller that runs only
// between cycles, on the engine coordinator, so a trace is scheduled
// bit-identically across the sequential, scheduler and parallel engines at
// any worker count. It is fed by a trace source and reports to a sink, and
// the two run functions differ only in what they plug in. Run replays a
// Trace: every job is admitted up front into a named workload (fixed job
// indices, per-job network attribution, packet targets) and each job's
// wait, run and slowdown are recorded next to the usual network metrics.
// RunGenerated streams a GenTrace of 100k–1M jobs: jobs are admitted at
// placement and retired at departure, outcomes fold into fixed-memory
// accumulators, and the run ends at the last departure, so memory is
// bounded by the jobs concurrently in the system.
//
// A degenerate trace — every job arrives at cycle 0, none departs —
// executes the exact static-workload run (workload.Compile +
// sim.RunWorkload) down to the RNG streams; the equivalence is enforced
// by TestScheduleDegenerateMatchesRunWorkload.
package scheduler

import (
	"fmt"
	"strconv"
	"strings"

	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// Queueing discipline names.
const (
	// DisciplineFCFS starts jobs strictly in arrival order: a job that does
	// not fit blocks everything behind it.
	DisciplineFCFS = "fcfs"
	// disciplineBackfill starts any queued job that fits when the head does
	// not (aggressive backfill: no reservation for the head job, so small
	// late jobs may delay a large blocked one).
	disciplineBackfill = "backfill"
	// DisciplineEASY is reservation-based (EASY) backfill: a blocked head
	// job gets a shadow-time reservation computed from the running jobs'
	// remaining cycle budgets, and a queued job may only jump ahead if it
	// fits now and either finishes by the shadow time or uses routers the
	// head will not need then — so backfilling never delays the head. The
	// reservation is exact for cycle-duration jobs; running jobs with
	// unknown durations contribute nothing to the shadow computation (see
	// planStarts).
	DisciplineEASY = "easy"
)

// Duration kind names.
const (
	// durationNone: the job runs until the simulation ends.
	durationNone = "none"
	// durationCycles: the job departs Duration cycles after it starts.
	durationCycles = "cycles"
	// DurationPackets: the job departs once it has delivered Duration
	// packets (counted from its start, warm-up included).
	DurationPackets = "packets"
)

// maxCycle bounds every cycle count that comes from outside — a trace's
// arrivals and cycle budgets, a generated trace's draws — so that start +
// duration, and now + duration for any reachable now, cannot wrap.
const maxCycle = 1 << 61

// KnownDisciplines lists the queueing discipline names, for flag usage
// strings and error messages.
func KnownDisciplines() []string {
	return []string{DisciplineFCFS, disciplineBackfill, DisciplineEASY}
}

// knownDurationKinds lists the duration kind names.
func knownDurationKinds() []string { return []string{durationNone, durationCycles, DurationPackets} }

// ValidateDiscipline checks a queueing discipline name, listing the known
// names on a mismatch — the flag-time check of the df* convention ("" is
// the FCFS default).
func ValidateDiscipline(name string) error {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", DisciplineFCFS, disciplineBackfill, DisciplineEASY:
		return nil
	}
	return fmt.Errorf("scheduler: unknown discipline %q (known: %s)",
		name, strings.Join(KnownDisciplines(), ", "))
}

// normDiscipline canonicalises a discipline name ("" is FCFS) and checks it.
func normDiscipline(name string) (string, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		name = DisciplineFCFS
	}
	return name, ValidateDiscipline(name)
}

// TraceJob is one job of a trace: a workload job spec (size, allocation
// policy, intra-job pattern, load, phase) plus its scheduler lifecycle.
type TraceJob struct {
	workload.JobSpec
	// Arrival is the absolute simulation cycle (0 = first cycle, warm-up
	// included) at which the job enters the queue.
	Arrival int64 `json:"arrival,omitempty"`
	// Duration is interpreted per DurationKind: a cycle budget, a
	// packets-delivered target, or ignored for "none".
	Duration int64 `json:"duration,omitempty"`
	// DurationKind is "none", "cycles" or "packets". Empty defaults to
	// "cycles" when Duration > 0 and "none" otherwise.
	DurationKind string `json:"duration_kind,omitempty"`
}

// Trace is a timed job trace: the dfsched -trace JSON form.
type Trace struct {
	// Discipline is "fcfs" (default), "backfill" or "easy".
	Discipline string     `json:"discipline,omitempty"`
	Jobs       []TraceJob `json:"jobs"`
}

// normalized returns a copy of the trace with defaults filled and
// scheduler-level fields validated (workload-level fields are validated by
// workload.Admit when the jobs are registered).
func (tr Trace) normalized() (Trace, error) {
	out := tr
	var err error
	if out.Discipline, err = normDiscipline(tr.Discipline); err != nil {
		return out, err
	}
	if len(tr.Jobs) == 0 {
		return out, fmt.Errorf("scheduler: trace has no jobs")
	}
	out.Jobs = append([]TraceJob(nil), tr.Jobs...)
	for i := range out.Jobs {
		tj := &out.Jobs[i]
		if tj.Arrival < 0 || tj.Arrival > maxCycle {
			return out, fmt.Errorf("scheduler: job %d: arrival cycle %d outside [0, 2^61]", i, tj.Arrival)
		}
		kind := strings.ToLower(strings.TrimSpace(tj.DurationKind))
		if kind == "" {
			kind = durationNone
			if tj.Duration > 0 {
				kind = durationCycles
			}
		}
		switch kind {
		case durationNone:
			if tj.Duration != 0 {
				return out, fmt.Errorf("scheduler: job %d: duration %d with duration kind %q", i, tj.Duration, durationNone)
			}
		case durationCycles, DurationPackets:
			if tj.Duration < 1 {
				return out, fmt.Errorf("scheduler: job %d: duration kind %q needs duration ≥ 1, got %d", i, kind, tj.Duration)
			}
			if kind == durationCycles && tj.Duration > maxCycle {
				return out, fmt.Errorf("scheduler: job %d: cycle budget %d exceeds 2^61", i, tj.Duration)
			}
		default:
			return out, fmt.Errorf("scheduler: job %d: unknown duration kind %q (known: %s)",
				i, tj.DurationKind, strings.Join(knownDurationKinds(), ", "))
		}
		tj.DurationKind = kind
	}
	return out, nil
}

// Validate checks the whole trace against a topology without running
// anything: discipline and duration kinds, every job spec (allocation
// policy, pattern names against the job size, phase fields, duplicate
// names), and that every job can ever fit on the machine. It is the
// flag-time validation for dfsched, matching the df* convention of
// rejecting typos before the first simulation.
func (tr Trace) Validate(p topology.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	_, err := newReplay(topology.New(p), tr, 1)
	return err
}

// ParseTraceJob parses the compact one-line trace-job form used by
// dfsched -job: the workload.ParseJob syntax plus the scheduler keys
//
//	arrival=<cycle>,duration=<n>,dkind=cycles|packets|none
//
// e.g. "name=a,nodes=72,alloc=spread,load=0.3,arrival=1000,duration=5000".
func ParseTraceJob(s string) (TraceJob, error) {
	var tj TraceJob
	rest := make([]string, 0, 8)
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return tj, fmt.Errorf("scheduler: trace-job field %q is not key=value", kv)
		}
		var err error
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "arrival":
			tj.Arrival, err = strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		case "duration":
			tj.Duration, err = strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		case "dkind", "duration_kind":
			tj.DurationKind = strings.ToLower(strings.TrimSpace(val))
		default:
			rest = append(rest, kv)
		}
		if err != nil {
			return tj, fmt.Errorf("scheduler: bad value for trace-job field %q: %w", key, err)
		}
	}
	js, err := workload.ParseJob(strings.Join(rest, ","))
	if err != nil {
		return tj, err
	}
	tj.JobSpec = js
	return tj, nil
}

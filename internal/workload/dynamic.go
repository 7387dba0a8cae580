package workload

import (
	"errors"
	"fmt"

	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
)

// Dynamic workloads: the incremental Admit/Place/Release API a job
// scheduler drives. A dynamic workload registers its full job population up
// front (Admit — job indices and per-job accounting arrays are fixed for
// the whole run), then places and releases jobs while the simulation runs,
// recycling freed routers. Compile is a thin loop over the same primitives,
// so a scheduler that places every job at cycle 0 and never releases any
// reproduces a static compile exactly, RNG stream included.
//
// Invariants:
//
//   - A job places at most once; its index, name and spec never change.
//   - nodeJob/nodeRank always describe the *current* tenancy: Release
//     clears a job's entries, Place overwrites them for the new tenant.
//     The network borrows nodeJob (NodeJobs), so these are the only
//     tenancy writes a run sees. In-flight packets of a released job are
//     unaffected — the simulator attributes packets by the job index
//     stamped at generation.
//   - The placement RNG (allocation draws, PERM pairings) is consumed only
//     by Place, in call order, so a trace's placements are a deterministic
//     function of the seed and the placement sequence.
var ErrNoCapacity = errors.New("workload: not enough free routers")

// NewDynamic returns an empty dynamic workload over the topology: no jobs,
// every router free. seed drives placement randomness exactly as in
// Compile.
func NewDynamic(t *topology.Topology, seed uint64) *Workload {
	w := &Workload{
		topo:        t,
		nodeJob:     make([]int32, t.NumNodes()),
		nodeRank:    make([]int32, t.NumNodes()),
		free:        make([]bool, t.NumRouters()),
		freeRouters: t.NumRouters(),
		root:        rng.New(seed ^ compileSalt),
		names:       make(map[string]bool),
	}
	for n := range w.nodeJob {
		w.nodeJob[n] = -1
	}
	for r := range w.free {
		w.free[r] = true
	}
	return w
}

// NewDynamicStream returns a dynamic workload in streaming mode for
// cluster-lifetime traces: jobs are identified by index only, the network
// builds no per-job attribution arrays (NumJobs reports 0), Retire reclaims
// a released job's compiled state for the next Admit, and the job index
// keeps only the jobs admitted since the oldest one not yet retired (job
// indices themselves keep counting) — so retained memory is bounded by the
// jobs concurrently admitted, not by trace length, and a job costs no
// allocation once the run has seen its like. Placement and RNG semantics
// are identical to NewDynamic.
func NewDynamicStream(t *topology.Topology, seed uint64) *Workload {
	w := NewDynamic(t, seed)
	w.anon = true
	w.names = nil
	return w
}

// Admit registers a job without placing it: the spec is normalised and
// validated (allocation policy, pattern names against the job size, phase
// fields), the job index is reserved, and per-job accounting is sized. It
// consumes no placement RNG, so admission order only fixes job indices.
func (w *Workload) Admit(js JobSpec) (int, error) {
	idx := w.base + len(w.jobs)
	if err := js.normalize(idx); err != nil {
		return -1, err
	}
	// Streaming workloads skip name bookkeeping: indices are the only
	// identity, and a map over every job ever admitted would grow with
	// the trace.
	if !w.anon && w.names[js.Name] {
		return -1, fmt.Errorf("workload: duplicate job name %q", js.Name)
	}
	// Pattern names are validated now, against the job's rank count, so
	// Place cannot fail on anything but capacity.
	for _, pn := range patternNames(&js) {
		if err := validateRankPattern(pn, js.Nodes); err != nil {
			return -1, fmt.Errorf("workload: job %q: %w", js.Name, err)
		}
	}
	if !w.anon {
		w.names[js.Name] = true
	}
	var jb *job
	if n := len(w.retired); n > 0 {
		jb, w.retired = w.retired[n-1], w.retired[:n-1]
	} else {
		jb = new(job)
	}
	jb.spec = js
	if len(w.jobs) == cap(w.jobs) {
		w.dropRetiredPrefix()
	}
	w.jobs = append(w.jobs, jb)
	return idx, nil
}

// dropRetiredPrefix moves the index window past the jobs retired before
// the oldest one still admitted, in place, when they are at least half of
// it: a streaming workload's index then spans the jobs admitted since the
// oldest live one, not the trace, and Admit grows it only when that span
// does — amortised O(1) per job, with no allocation in steady state.
// Workloads that never Retire have no retired prefix.
func (w *Workload) dropRetiredPrefix() {
	k := 0
	for k < len(w.jobs) && w.jobs[k] == nil {
		k++
	}
	if k == 0 || 2*k < len(w.jobs) {
		return
	}
	n := copy(w.jobs, w.jobs[k:])
	clear(w.jobs[n:])
	w.jobs = w.jobs[:n]
	w.base += k
}

// patternNames returns the pattern names a job compiles (the switch-phase
// list, or the single job pattern).
func patternNames(js *JobSpec) []string {
	if js.Phase.Kind == phaseSwitch {
		return js.Phase.Patterns
	}
	return []string{js.Pattern}
}

// RoutersNeeded returns the routers a job of nodes ≥ 1 nodes occupies at p
// nodes per router: ⌈nodes/p⌉, written so that a job size near MaxInt (it
// is outside input, and Admit only bounds it from below) cannot wrap into a
// small answer.
func RoutersNeeded(nodes, p int) int { return (nodes-1)/p + 1 }

// RoutersFor returns the number of routers job j occupies when placed.
func (w *Workload) RoutersFor(j int) int {
	return RoutersNeeded(w.job(j).spec.Nodes, w.topo.Params().P)
}

// FreeRouters returns the routers currently unallocated.
func (w *Workload) FreeRouters() int { return w.freeRouters }

// Place allocates routers for admitted job j under its allocation policy,
// fills the node→job/rank maps, and compiles its rank patterns — consuming
// the placement RNG in the same order Compile does. It returns an error
// wrapping ErrNoCapacity when too few routers are free (the job stays
// admitted and can be placed later).
func (w *Workload) Place(j int) error {
	jb := w.job(j)
	if jb.placed {
		return fmt.Errorf("workload: job %q placed twice", jb.spec.Name)
	}
	js := &jb.spec
	t := w.topo
	p := t.Params()
	need := w.RoutersFor(j)
	if need > w.freeRouters {
		return fmt.Errorf("%w: job %q needs %d routers but only %d of %d are free",
			ErrNoCapacity, js.Name, need, w.freeRouters, t.NumRouters())
	}
	firstGroup := ((js.FirstGroup % t.NumGroups()) + t.NumGroups()) % t.NumGroups()
	routers := jb.routers[:0]
	switch js.Alloc {
	case AllocConsecutive:
		routers = allocConsecutive(t, w.free, firstGroup*p.A, need, routers)
	case AllocRandom:
		routers = allocRandom(w.free, need, w.root, routers)
	case AllocSpread:
		routers = allocSpread(t, w.free, firstGroup, need, routers)
	}
	if len(routers) != need {
		return fmt.Errorf("workload: job %q: allocation produced %d of %d routers", js.Name, len(routers), need)
	}
	w.freeRouters -= need
	jb.routers, jb.placed = routers, true
	for _, r := range routers {
		for i := 0; i < p.P && len(jb.nodes) < js.Nodes; i++ {
			node := t.NodeID(r, i)
			w.nodeJob[node] = int32(j)
			w.nodeRank[node] = int32(len(jb.nodes))
			jb.nodes = append(jb.nodes, node)
		}
	}
	for _, pn := range patternNames(js) {
		w.root.SplitTo(&w.split)
		rp, err := rankPatternByName(pn, len(jb.nodes), &w.split)
		if err != nil {
			// Admit validated the names; reaching here is a bug.
			return fmt.Errorf("workload: job %q: %w", js.Name, err)
		}
		jb.patterns = append(jb.patterns, rp)
	}
	switch js.Phase.Kind {
	case phaseBursty:
		jb.period = js.Phase.Period
		jb.onCycles = int64(float64(js.Phase.Duty*float64(js.Phase.Period)) + 0.5) // rounded: never fused
		if jb.onCycles < 1 {
			jb.onCycles = 1
		}
		if jb.onCycles >= jb.period {
			jb.onCycles = 0 // full duty degenerates to steady
		}
	case phaseSwitch:
		jb.period = js.Phase.Period
	}
	return nil
}

// Release returns job j's routers to the free pool and clears its nodes
// from the node→job map, so the next Place may recycle them. The job's
// placement history (JobRouters, JobNodes) stays readable for reporting.
// Releasing an unplaced or already-released job panics: the scheduler owns
// the lifecycle and a double free is a bug, not a state.
func (w *Workload) Release(j int) {
	jb := w.job(j)
	if !jb.placed || jb.released {
		panic(fmt.Sprintf("workload: Release(%d) of unplaced job %q", j, jb.spec.Name))
	}
	jb.released = true
	for _, n := range jb.nodes {
		if w.nodeJob[n] == int32(j) {
			w.nodeJob[n] = -1
		}
	}
	for _, r := range jb.routers {
		w.free[r] = true
	}
	w.freeRouters += len(jb.routers)
}

// JobNodes returns the node ids of job j in rank order (its placement at
// Place time; empty before placement): the workload's own slice, lent
// read-only. In a streaming workload it is valid until Retire(j), after
// which the storage belongs to a later job.
func (w *Workload) JobNodes(j int) []int { return w.job(j).nodes }

// Retire reclaims the compiled state (nodes, routers, patterns, spec) of a
// released job in a streaming workload: after Retire the index is dead and
// any further access to job j panics — on a nil dereference, or out of
// range once Admit has dropped the index from the window it keeps (see
// dropRetiredPrefix); deliberately, since touching a retired job is a
// lifecycle bug — and the record, emptied but for the capacity of its
// slices, waits for the next Admit. Only streaming workloads may retire
// (static workloads keep placement history for reporting); the job must
// have been released first, so no node→job entry can still point at it.
func (w *Workload) Retire(j int) {
	if !w.anon {
		panic("workload: Retire on a non-streaming workload")
	}
	if j < w.base || w.job(j) == nil {
		panic(fmt.Sprintf("workload: Retire(%d) twice", j))
	}
	jb := w.job(j)
	if jb.placed && !jb.released {
		panic(fmt.Sprintf("workload: Retire(%d) of a still-placed job", j))
	}
	w.jobs[j-w.base] = nil
	clear(jb.patterns) // a PERM pattern pins a permutation
	*jb = job{nodes: jb.nodes[:0], routers: jb.routers[:0], patterns: jb.patterns[:0]}
	w.retired = append(w.retired, jb)
}

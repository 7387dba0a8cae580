package workload

import (
	"fmt"
	"strconv"
	"strings"

	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
)

// compileSalt decorrelates the compile-time random stream (allocation,
// permutation draws) from the simulator's per-run streams, which are also
// derived from the run seed.
const compileSalt = 0x5e6d4f3a7b909a1c

// Workload is a compiled workload: a node-level traffic pattern plus the
// node→job attribution map. A network built over it (sim.NewNetwork,
// sim.RunWorkload) generates at its members only, at their jobs' loads,
// draws destinations with DestAt, and reports per-job metrics.
type Workload struct {
	topo *topology.Topology
	// jobs holds the jobs from index base on, by index − base (see job).
	// base is 0 but in a streaming workload, where it advances past the
	// retired prefix (dropRetiredPrefix) so that jobs spans the jobs
	// admitted since the oldest one not yet retired, not the trace.
	jobs     []*job
	base     int
	nodeJob  []int32 // node → job index, -1 unallocated (or silenced by Solo)
	nodeRank []int32 // node → rank within its job
	name     string

	// Dynamic-mode state (see dynamic.go): the free-router pool and the
	// compile-time RNG, retained so jobs can be placed and released
	// incrementally after construction. Compile itself is built on the same
	// Admit/Place primitives, which is what makes a dynamic trace whose
	// jobs are all placed at cycle 0 reproduce a static compile exactly —
	// both consume the allocation RNG stream in the same order.
	free        []bool
	freeRouters int
	root        *rng.Source
	names       map[string]bool // admitted job names, for duplicate checks

	// anon marks a streaming workload (NewDynamicStream): job identity is
	// positional only — no name bookkeeping, no per-job attribution arrays
	// in the network (NumJobs reports 0), and Retire may reclaim a released
	// job's compiled state. This is what keeps retained memory flat in
	// trace length for 100k+-job scheduler runs.
	anon bool
	// retired holds the job records Retire reclaimed; Admit hands them out
	// again with their nodes/routers/patterns capacity, so a streaming
	// workload in steady state places a job without allocating. split is the
	// storage of the per-pattern sub-stream Place splits off root.
	retired []*job
	split   rng.Source
}

// job returns the record of job index j.
func (w *Workload) job(j int) *job { return w.jobs[j-w.base] }

// job is the compiled form of a JobSpec.
type job struct {
	spec     JobSpec
	nodes    []int // node ids in rank order
	routers  []int // hosting routers in allocation order
	placed   bool  // true after Place
	released bool  // true after Release: placement history only
	patterns []rankPattern
	period   int64 // bursty/switch phase length; 0 = steady
	onCycles int64 // bursty: on-cycles per period; 0 = always on
}

// rankPattern draws an intra-job destination by source rank.
type rankPattern interface {
	label() string
	// dest returns the destination rank for a packet from rank src, or -1
	// for no draw.
	dest(n int, src int, rnd *rng.Source) int
}

// rankUniform is uniform traffic over the job, excluding the source.
type rankUniform struct{}

func (rankUniform) label() string { return "UN" }

func (rankUniform) dest(n, src int, rnd *rng.Source) int {
	d := rnd.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// rankShift sends rank i to rank i+k mod n — the nearest-neighbour /
// ring-exchange family.
type rankShift struct{ k int }

func (s rankShift) label() string { return "SHIFT+" + strconv.Itoa(s.k) }

func (s rankShift) dest(n, src int, _ *rng.Source) int { return (src + s.k) % n }

// rankPerm is a fixed random pairing (derangement) over the job's ranks.
type rankPerm struct{ to []int }

func (rankPerm) label() string { return "PERM" }

func (p rankPerm) dest(_, src int, _ *rng.Source) int { return p.to[src] }

// rankPatternByName compiles an intra-job pattern name for a job of n
// nodes. PERM consumes the compile rng.
func rankPatternByName(name string, n int, rnd *rng.Source) (rankPattern, error) {
	u := strings.ToUpper(strings.TrimSpace(name))
	switch {
	case u == "UN" || u == "UNIFORM":
		return rankUniform{}, nil
	case u == "PERM" || u == "PERMUTATION":
		perm := make([]int, n)
		rnd.Perm(perm)
		traffic.Derange(perm)
		return rankPerm{to: perm}, nil
	case u == "SHIFT" || strings.HasPrefix(u, "SHIFT+"):
		k, err := shiftOffset(u, name, n)
		if err != nil {
			return nil, err
		}
		return rankShift{k: k}, nil
	default:
		return nil, fmt.Errorf("workload: unknown intra-job pattern %q (known: UN, PERM, SHIFT+<k>)", name)
	}
}

// shiftOffset parses and range-checks a SHIFT offset against the job size.
func shiftOffset(u, name string, n int) (int, error) {
	k := 1
	if u != "SHIFT" {
		var err error
		if k, err = strconv.Atoi(u[len("SHIFT+"):]); err != nil {
			return 0, fmt.Errorf("workload: bad SHIFT offset in %q", name)
		}
	}
	if k <= 0 {
		return 0, fmt.Errorf("workload: SHIFT offset must be positive, got %d", k)
	}
	if k%n == 0 {
		return 0, fmt.Errorf("workload: SHIFT+%d collapses to self for a %d-node job", k, n)
	}
	return k % n, nil
}

// validateRankPattern checks an intra-job pattern name against a job size
// without building the pattern — no RNG, no permutation allocation — so
// admission-time validation costs O(1) per name.
func validateRankPattern(name string, n int) error {
	u := strings.ToUpper(strings.TrimSpace(name))
	switch {
	case u == "UN" || u == "UNIFORM", u == "PERM" || u == "PERMUTATION":
		return nil
	case u == "SHIFT" || strings.HasPrefix(u, "SHIFT+"):
		_, err := shiftOffset(u, name, n)
		return err
	default:
		return fmt.Errorf("workload: unknown intra-job pattern %q (known: UN, PERM, SHIFT+<k>)", name)
	}
}

// ValidatePattern checks an intra-job pattern name against a job size
// without compiling it — the O(1) admission-time check, exported so trace
// generators can reject a bad (pattern, size) pair for every job of a
// 100k-job trace before the run starts instead of panicking at placement.
func ValidatePattern(name string, n int) error { return validateRankPattern(name, n) }

// Compile places every job of the spec on the topology and builds the
// node-level pattern. seed drives the compile-time random choices
// (random allocation, PERM pairings) — typically the run's seed, so a
// workload is reproducible from the same configuration.
func Compile(t *topology.Topology, spec Spec, seed uint64) (*Workload, error) {
	if len(spec.Jobs) == 0 {
		return nil, fmt.Errorf("workload: spec has no jobs")
	}
	// Compile is the all-at-once form of the dynamic Admit/Place API: every
	// job is admitted and placed immediately, in spec order, consuming the
	// compile RNG stream exactly as a cycle-0 dynamic placement would.
	w := NewDynamic(t, seed)
	labels := make([]string, 0, len(spec.Jobs))
	for idx := range spec.Jobs {
		j, err := w.Admit(spec.Jobs[idx])
		if err != nil {
			return nil, err
		}
		if err := w.Place(j); err != nil {
			return nil, err
		}
		labels = append(labels, w.job(j).spec.Name)
	}
	w.name = "WL(" + strings.Join(labels, "+") + ")"
	return w, nil
}

// The allocators append the routers they take to out (empty, any capacity)
// and return it.

// allocConsecutive takes the first free routers scanning from router start
// (wrapping), the first-fit policy of a consecutive-group scheduler.
func allocConsecutive(t *topology.Topology, free []bool, start, need int, out []int) []int {
	n := t.NumRouters()
	for i := 0; i < n && len(out) < need; i++ {
		r := (start + i) % n
		if free[r] {
			free[r] = false
			out = append(out, r)
		}
	}
	return out
}

// allocRandom picks need uniform random free routers.
func allocRandom(free []bool, need int, rnd *rng.Source, out []int) []int {
	pool := make([]int, 0, len(free))
	for r, f := range free {
		if f {
			pool = append(pool, r)
		}
	}
	for len(out) < need && len(pool) > 0 {
		i := rnd.Intn(len(pool))
		r := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		free[r] = false
		out = append(out, r)
	}
	return out
}

// allocSpread round-robins over groups starting at firstGroup, taking the
// lowest free router of each group per pass — the group-spread placement
// that avoids the consecutive bottleneck.
func allocSpread(t *topology.Topology, free []bool, firstGroup, need int, out []int) []int {
	a := t.Params().A
	groups := t.NumGroups()
	for len(out) < need {
		took := false
		for gi := 0; gi < groups && len(out) < need; gi++ {
			g := (firstGroup + gi) % groups
			for i := 0; i < a; i++ {
				r := t.RouterID(g, i)
				if free[r] {
					free[r] = false
					out = append(out, r)
					took = true
					break
				}
			}
		}
		if !took {
			break
		}
	}
	return out
}

// Name labels the workload's traffic in a result. Compiled (and derived)
// workloads carry an explicit name; dynamic ones label themselves by their
// admitted jobs.
func (w *Workload) Name() string {
	if w.name != "" {
		return w.name
	}
	if w.anon {
		return "STREAM"
	}
	labels := make([]string, len(w.jobs))
	for i, jb := range w.jobs {
		labels[i] = jb.spec.Name
	}
	return "SCHED(" + strings.Join(labels, "+") + ")"
}

// DestAt is the destination draw for a packet generated by src at the given
// cycle, honouring the job's phase schedule. It returns -1 when src is
// unallocated or its job is in an off phase: that draw is no generation
// attempt. The simulator calls it at the packet's exact arrival cycle, so
// every engine and worker count sees the same cycles.
func (w *Workload) DestAt(src int, now int64, rnd *rng.Source) int {
	ji := w.nodeJob[src]
	if ji < 0 {
		return -1
	}
	jb := w.job(int(ji))
	if jb.onCycles > 0 && now%jb.period >= jb.onCycles {
		return -1 // bursty off phase
	}
	pat := jb.patterns[0]
	if len(jb.patterns) > 1 {
		pat = jb.patterns[(now/jb.period)%int64(len(jb.patterns))]
	}
	d := pat.dest(len(jb.nodes), int(w.nodeRank[src]), rnd)
	if d < 0 {
		return -1
	}
	return jb.nodes[d]
}

// Member reports whether node generates traffic: only allocated (and, after
// Solo, selected) nodes do.
func (w *Workload) Member(node int) bool { return w.nodeJob[node] >= 0 }

// NodeLoad is the offered load of node in phits/(node·cycle): its job's
// configured load, or 0 to inherit the run's.
func (w *Workload) NodeLoad(node int) float64 {
	if j := w.nodeJob[node]; j >= 0 {
		return w.job(int(j)).spec.Load
	}
	return 0
}

// NumJobs is the number of jobs the network attributes packets to. A
// streaming workload reports 0:
// the network sizes its per-job attribution arrays (O(jobs × routers))
// from this at construction, and a cluster-lifetime trace must not pay
// that footprint — per-job accounting lives in the scheduler's bounded
// streaming stats instead.
func (w *Workload) NumJobs() int {
	if w.anon {
		return 0
	}
	return len(w.jobs)
}

// JobName is job j's name.
func (w *Workload) JobName(j int) string { return w.job(j).spec.Name }

// NodeJobs is the workload's own node→job map (-1: unallocated), lent
// read-only: the simulator stamps packets from it at generation, and Place
// and Release write it in place, so a tenancy that changes mid-run is
// followed without a copy to keep in step.
func (w *Workload) NodeJobs() []int32 { return w.nodeJob }

// JobSpecOf returns the normalised spec of job j.
func (w *Workload) JobSpecOf(j int) JobSpec { return w.job(j).spec }

// JobRouters returns the routers hosting job j, in allocation order.
func (w *Workload) JobRouters(j int) []int {
	return append([]int(nil), w.job(j).routers...)
}

// JobDesc returns a one-line human description of job j's placement and
// behaviour for reports.
func (w *Workload) JobDesc(j int) string {
	jb := w.job(j)
	var phase string
	switch {
	case jb.onCycles > 0:
		phase = fmt.Sprintf(" bursty(%d×%d on)", jb.period, jb.onCycles)
	case len(jb.patterns) > 1:
		names := make([]string, len(jb.patterns))
		for i, p := range jb.patterns {
			names[i] = p.label()
		}
		return fmt.Sprintf("%s switch(%d) on %d routers (%s)",
			strings.Join(names, "/"), jb.period, len(jb.routers), jb.spec.Alloc)
	}
	return fmt.Sprintf("%s%s on %d routers (%s)", jb.patterns[0].label(), phase, len(jb.routers), jb.spec.Alloc)
}

// Subset returns a copy of the workload in which only the given jobs
// generate traffic, keeping every job's exact placement and job index —
// the building block of the interference experiments (Solo baselines and
// the pairwise matrix both select sub-workloads of one compiled
// placement, so the placements under comparison are literally the same).
func (w *Workload) Subset(keep ...int) *Workload {
	sel := make([]bool, len(w.jobs)) // by index − base
	labels := make([]string, 0, len(keep))
	for _, j := range keep {
		if j < w.base || j >= w.base+len(w.jobs) {
			panic(fmt.Sprintf("workload: Subset(%d) out of range [%d,%d)", j, w.base, w.base+len(w.jobs)))
		}
		if !sel[j-w.base] {
			labels = append(labels, w.job(j).spec.Name)
		}
		sel[j-w.base] = true
	}
	s := &Workload{
		topo:     w.topo,
		jobs:     w.jobs,
		base:     w.base,
		nodeJob:  make([]int32, len(w.nodeJob)),
		nodeRank: w.nodeRank,
		name:     w.Name() + "/subset:" + strings.Join(labels, "+"),
	}
	for n, ji := range w.nodeJob {
		if ji >= 0 && sel[int(ji)-w.base] {
			s.nodeJob[n] = ji
		} else {
			s.nodeJob[n] = -1
		}
	}
	return s
}

// Solo returns a copy of the workload in which only job j generates
// traffic, keeping its exact placement and job indices — the baseline for
// the inter-job interference metric (a job's latency in the mix vs. the
// same placement running alone).
func (w *Workload) Solo(j int) *Workload {
	s := w.Subset(j)
	s.name = w.Name() + "/solo:" + w.job(j).spec.Name
	return s
}

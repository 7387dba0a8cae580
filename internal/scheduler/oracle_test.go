package scheduler

import (
	"fmt"
	"sort"
	"testing"

	"dragonfly/internal/rng"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// The EASY oracle: an independent, slow, obviously-correct reimplementation
// of the scheduling disciplines over the count-based resource model,
// checked against the production controller on randomized traces. The
// production EASY code earns its shadow/extra bookkeeping by matching this
// oracle's *definitional* backfill rule exactly: a candidate may start now
// iff, assuming no further backfills, the head job's earliest possible
// start with the candidate running is no later than without it.

// oracleJob is one job of an oracle trace.
type oracleJob struct {
	arrival int64
	nodes   int
	need    int // ceil(nodes/P), precomputed
	dur     int64
	start   int64 // -1 until started
	// shadowCap is the tightest head-start bound recorded while this job
	// was the blocked head (-1: never blocked). EASY promises the actual
	// start never exceeds it.
	shadowCap int64
}

// earliestStart returns the first cycle ≥ now at which `need` routers are
// free, given `free` free now and the running jobs' departure times —
// assuming nothing else starts. Definitional: it tests every candidate
// event time by summing what has departed by then. Returns -1 if never.
func earliestStart(need, free int, running []rJob, now int64) int64 {
	if need <= free {
		return now
	}
	times := make([]int64, 0, len(running))
	for _, r := range running {
		times = append(times, r.end)
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	for _, t := range times {
		avail := free
		for _, r := range running {
			if r.end <= t {
				avail += r.need
			}
		}
		if avail >= need {
			return t
		}
	}
	return -1
}

// oracleSchedule brute-force simulates the whole trace on a count-based
// machine of `routers` routers under the discipline, filling each job's
// start cycle (and shadowCap for EASY heads). Event-driven but with no
// incremental bookkeeping: every decision recomputes from scratch.
func oracleSchedule(disc string, jobs []oracleJob, routers int) {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].arrival < jobs[order[b]].arrival })
	for i := range jobs {
		jobs[i].start, jobs[i].shadowCap = -1, -1
	}
	var running []rJob
	var queue []int
	nextArr := 0
	for {
		// Next event: earliest pending arrival or departure.
		next := int64(-1)
		if nextArr < len(order) {
			next = jobs[order[nextArr]].arrival
		}
		for _, r := range running {
			if next < 0 || r.end < next {
				next = r.end
			}
		}
		if next < 0 {
			return
		}
		now := next
		kept := running[:0]
		for _, r := range running {
			if r.end > now {
				kept = append(kept, r)
			}
		}
		running = kept
		for nextArr < len(order) && jobs[order[nextArr]].arrival <= now {
			queue = append(queue, order[nextArr])
			nextArr++
		}
		free := routers
		for _, r := range running {
			free -= r.need
		}
		begin := func(qi int) {
			j := queue[qi]
			jobs[j].start = now
			running = append(running, rJob{need: jobs[j].need, end: now + jobs[j].dur})
			free -= jobs[j].need
			queue = append(queue[:qi], queue[qi+1:]...)
		}
		switch disc {
		case DisciplineFCFS:
			for len(queue) > 0 && jobs[queue[0]].need <= free {
				begin(0)
			}
		case disciplineBackfill:
			for qi := 0; qi < len(queue); {
				if jobs[queue[qi]].need <= free {
					begin(qi)
				} else {
					qi++
				}
			}
		case DisciplineEASY:
			for len(queue) > 0 && jobs[queue[0]].need <= free {
				begin(0)
			}
			if len(queue) == 0 {
				break
			}
			head := &jobs[queue[0]]
			sBase := earliestStart(head.need, free, running, now)
			if sBase >= 0 && (head.shadowCap < 0 || sBase < head.shadowCap) {
				head.shadowCap = sBase
			}
			for qi := 1; qi < len(queue); {
				cand := &jobs[queue[qi]]
				if cand.need > free {
					qi++
					continue
				}
				// Definitional rule: tentatively run the candidate and ask
				// whether the head could still start by sBase.
				with := append(append([]rJob(nil), running...), rJob{need: cand.need, end: now + cand.dur})
				sNew := earliestStart(head.need, free-cand.need, with, now)
				delays := sBase >= 0 && (sNew < 0 || sNew > sBase)
				if sBase < 0 || !delays {
					begin(qi)
				} else {
					qi++
				}
			}
		}
	}
}

// fakeReconfig satisfies the controller's reconfigurator without a network,
// so the oracle tests dry-run the exact production Apply path.
type fakeReconfig struct{}

func (fakeReconfig) SetNodeActive(int, float64)        {}
func (fakeReconfig) SetNodeSilent(int)                 {}
func (fakeReconfig) LiveJobDelivered(int, []int) int64 { return 0 }

// startLog is the dry run's sink: each job's start cycle under the index
// the test knows it by — the workload index (trace position) for an eager
// source, the arrival-order index for a lazy one.
type startLog struct {
	starts []int64
	lazy   bool
}

func (l *startLog) started(i, j int, now int64) {
	if l.lazy {
		j = i
	}
	l.starts[j] = now
}
func (l *startLog) departed(int, int, int64, int64) {}

// dryRun drives the source through the production controller with a fake
// reconfigurator: the same NextEvent and apply code a simulation drives,
// minus the network. Returns the jobs' start cycles (see startLog).
func dryRun(t *testing.T, wl *workload.Workload, src source, disc string, lazy bool) []int64 {
	t.Helper()
	log := &startLog{starts: make([]int64, src.Len()), lazy: lazy}
	for i := range log.starts {
		log.starts[i] = -1
	}
	ctrl := &controller{wl: wl, src: src, out: log, disc: disc, lazy: lazy}
	var fake fakeReconfig
	guard := 0
	for now := ctrl.NextEvent(-1); now >= 0; now = ctrl.NextEvent(now) {
		ctrl.apply(fake, now)
		if guard++; guard > 100000 {
			t.Fatal("controller event loop did not terminate")
		}
	}
	return log.starts
}

// dryRunTrace dry-runs the trace's eager source; starts are per trace
// position.
func dryRunTrace(t *testing.T, topo *topology.Topology, tr Trace, seed uint64) []int64 {
	t.Helper()
	src, err := newReplay(topo, tr, seed)
	if err != nil {
		t.Fatalf("newReplay: %v", err)
	}
	return dryRun(t, src.wl, src, src.trace.Discipline, false)
}

// dryRunGenerated dry-runs the equivalent generated trace — the same jobs
// in (arrival, trace position) order, the order a GenTrace stores — through
// the lazy source, and maps the starts back to trace positions.
func dryRunGenerated(t *testing.T, topo *topology.Topology, jobs []oracleJob, disc string, seed uint64) []int64 {
	t.Helper()
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].arrival < jobs[order[b]].arrival })
	gt := &GenTrace{}
	for _, j := range order {
		gt.Arrival = append(gt.Arrival, jobs[j].arrival)
		gt.Nodes = append(gt.Nodes, int32(jobs[j].nodes))
		gt.Duration = append(gt.Duration, jobs[j].dur)
	}
	wl := workload.NewDynamicStream(topo, seed)
	byArrival := dryRun(t, wl, &genSource{gt, wl, topo.Params().P}, disc, true)
	starts := make([]int64, len(jobs))
	for i, j := range order {
		starts[j] = byArrival[i]
	}
	return starts
}

// randomOracleTrace draws a small trace of cycle-duration jobs. Node counts
// span [2, nodes(machine)] so heads block often and backfill windows open.
func randomOracleTrace(rnd *rng.Source, machineNodes int) []oracleJob {
	n := 4 + rnd.Intn(22)
	jobs := make([]oracleJob, n)
	for i := range jobs {
		jobs[i] = oracleJob{
			arrival: int64(rnd.Intn(400)),
			nodes:   2 + rnd.Intn(machineNodes-1),
			dur:     1 + int64(rnd.Intn(400)),
		}
	}
	return jobs
}

// TestEASYOracle checks the production controller against the brute-force
// oracle on randomized traces, fed through the eager (Trace) and the lazy
// (GenTrace) source alike — the acceptance criterion demands exact
// start-cycle agreement on ≥1000 EASY traces; FCFS and aggressive backfill
// ride along on the same harness. It also asserts the EASY reservation
// invariant: no head job ever starts later than the tightest shadow time
// recorded while it was blocked.
func TestEASYOracle(t *testing.T) {
	cfg := schedCfg()
	topo := topology.New(cfg.Topology)
	p := topo.Params()
	machineNodes := topo.NumNodes()
	counts := map[string]int{DisciplineEASY: 1100, DisciplineFCFS: 200, disciplineBackfill: 200}
	if testing.Short() {
		counts = map[string]int{DisciplineEASY: 200, DisciplineFCFS: 50, disciplineBackfill: 50}
	}
	rnd := rng.New(0xea57_0ac1e)
	for _, disc := range []string{DisciplineEASY, DisciplineFCFS, disciplineBackfill} {
		for trace := 0; trace < counts[disc]; trace++ {
			jobs := randomOracleTrace(rnd, machineNodes)
			for i := range jobs {
				jobs[i].need = (jobs[i].nodes + p.P - 1) / p.P
			}
			oracleSchedule(disc, jobs, topo.NumRouters())

			tr := Trace{Discipline: disc, Jobs: make([]TraceJob, len(jobs))}
			for i := range jobs {
				tr.Jobs[i] = TraceJob{
					JobSpec:      jobSpecN(jobs[i].nodes),
					Arrival:      jobs[i].arrival,
					Duration:     jobs[i].dur,
					DurationKind: durationCycles,
				}
			}
			for _, side := range []struct {
				source string
				starts []int64
			}{
				{"Trace", dryRunTrace(t, topo, tr, uint64(trace))},
				{"GenTrace", dryRunGenerated(t, topo, jobs, disc, uint64(trace))},
			} {
				for i := range jobs {
					if side.starts[i] != jobs[i].start {
						t.Fatalf("%s trace %d from a %s: job %d (arr %d, need %d, dur %d): production start %d, oracle start %d\n%s",
							disc, trace, side.source, i, jobs[i].arrival, jobs[i].need, jobs[i].dur,
							side.starts[i], jobs[i].start, describeOracleTrace(jobs))
					}
					if disc == DisciplineEASY && jobs[i].shadowCap >= 0 && side.starts[i] > jobs[i].shadowCap {
						t.Fatalf("%s trace %d from a %s: job %d started at %d, past its shadow-time bound %d\n%s",
							disc, trace, side.source, i, side.starts[i], jobs[i].shadowCap, describeOracleTrace(jobs))
					}
				}
			}
		}
	}
}

func describeOracleTrace(jobs []oracleJob) string {
	s := ""
	for i, j := range jobs {
		s += fmt.Sprintf("  job %d: arrival=%d nodes=%d need=%d dur=%d start=%d shadowCap=%d\n",
			i, j.arrival, j.nodes, j.need, j.dur, j.start, j.shadowCap)
	}
	return s
}

// TestShadowTime pins the reservation arithmetic on hand-worked cases.
func TestShadowTime(t *testing.T) {
	cases := []struct {
		name       string
		need, free int
		running    []rJob
		wantS      int64
		wantE      int
	}{
		{"fits-now", 3, 4, nil, 0, 1},
		{"one-departure", 5, 2, []rJob{{need: 4, end: 100}}, 100, 1},
		{"accumulates", 6, 1, []rJob{{need: 2, end: 50}, {need: 3, end: 80}}, 80, 0},
		{"tie-counts-all", 4, 0, []rJob{{need: 2, end: 60}, {need: 3, end: 60}}, 60, 1},
		{"unknown-never", 5, 2, []rJob{{need: 4, end: -1}}, -1, 0},
		{"unknown-skipped", 5, 1, []rJob{{need: 9, end: -1}, {need: 4, end: 70}}, 70, 0},
	}
	for _, tc := range cases {
		s, e := new(planScratch).shadowTime(tc.need, tc.free, tc.running)
		if s != tc.wantS || e != tc.wantE {
			t.Errorf("%s: shadowTime(%d, %d, %v) = (%d, %d), want (%d, %d)",
				tc.name, tc.need, tc.free, tc.running, s, e, tc.wantS, tc.wantE)
		}
	}
}

// TestPlanStartsEASY pins the backfill rules on a hand-worked scenario
// where all three disciplines answer differently.
func TestPlanStartsEASY(t *testing.T) {
	// Machine: 10 routers, 7 free; 3 busy until cycle 100.
	// Queue: head needs 8 (blocked; shadow S = 100, spare E = 10-8 = 2),
	// then a: need 5 / dur 500 (outlives S, exceeds the spare — would
	// delay the head; EASY rejects, aggressive backfill takes it),
	// then b: need 4 / dur 50 (ends by S: EASY ok),
	// then c: need 2 / dur 500 (outlives S but fits the spare: EASY ok),
	// then d: need 1 / dur 100 (ends exactly at S: EASY ok).
	queue := []qJob{
		{need: 8, dur: 40},
		{need: 5, dur: 500},
		{need: 4, dur: 50},
		{need: 2, dur: 500},
		{need: 1, dur: 100},
	}
	running := []rJob{{need: 3, end: 100}}
	planStarts := new(planScratch).planStarts
	if got, want := planStarts(DisciplineEASY, 0, 7, queue, running), []int{2, 3, 4}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("planStarts easy = %v, want %v", got, want)
	}
	// FCFS: head blocked, nothing starts.
	if got := planStarts(DisciplineFCFS, 0, 7, queue, running); len(got) != 0 {
		t.Fatalf("planStarts fcfs = %v, want none", got)
	}
	// Aggressive backfill: a (5≤7) then c (2≤2); b and d no longer fit.
	if got, want := planStarts(disciplineBackfill, 0, 7, queue, running), []int{1, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("planStarts backfill = %v, want %v", got, want)
	}
}

// jobSpecN builds the minimal valid job spec the oracle traces use.
func jobSpecN(nodes int) workload.JobSpec {
	return workload.JobSpec{Nodes: nodes}
}

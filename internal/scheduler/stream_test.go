package scheduler

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"dragonfly/internal/sim"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// genSpecSmall is the shared trace shape the streaming tests draw from: a
// ~67%-offered-load open system on the h=2 test machine (72 nodes), small
// enough that every discipline drains it in a few thousand cycles.
func genSpecSmall(jobs int) GenSpec {
	return GenSpec{
		Jobs:         jobs,
		InterArrival: 30,
		NodesMedian:  10,
		NodesSigma:   0.7,
		MaxNodes:     72,
		DurMedian:    300,
		DurSigma:     0.7,
		Load:         0.3,
	}
}

// Same spec and seed must yield a byte-identical trace — repeatedly, and
// from concurrent goroutines (the generator is a pure function; worker
// count and call interleaving cannot touch it). A different seed must not.
func TestGenerateDeterminism(t *testing.T) {
	spec := genSpecSmall(2000)
	ref, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	got := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gt, err := Generate(spec, 42)
			if err != nil {
				return // left nil; caught below
			}
			got[g], _ = json.Marshal(gt)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if !bytes.Equal(got[g], refJSON) {
			t.Fatalf("goroutine %d: trace differs from the serial reference", g)
		}
	}
	other, err := Generate(spec, 43)
	if err != nil {
		t.Fatal(err)
	}
	otherJSON, _ := json.Marshal(other)
	if bytes.Equal(otherJSON, refJSON) {
		t.Fatal("seeds 42 and 43 generated identical traces")
	}
}

// A 100k-job draw must track the spec's distribution parameters: mean
// inter-arrival within 2%, median size within 10%, median duration within
// 5%, arrivals nondecreasing, every job inside its clamps.
func TestGenerateDistribution(t *testing.T) {
	spec := GenSpec{
		Jobs:         100_000,
		InterArrival: 20,
		NodesMedian:  8,
		NodesSigma:   0.6,
		MaxNodes:     72,
		DurMedian:    200,
		DurSigma:     0.8,
	}
	gt, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gt.Len(); i++ {
		if i > 0 && gt.Arrival[i] < gt.Arrival[i-1] {
			t.Fatalf("job %d arrives at %d, before job %d at %d", i, gt.Arrival[i], i-1, gt.Arrival[i-1])
		}
		if n := gt.Nodes[i]; n < 2 || n > int32(spec.MaxNodes) {
			t.Fatalf("job %d: %d nodes outside [2, %d]", i, n, spec.MaxNodes)
		}
		if gt.Duration[i] < 1 {
			t.Fatalf("job %d: duration %d < 1", i, gt.Duration[i])
		}
	}
	meanIA := float64(gt.Arrival[gt.Len()-1]) / float64(gt.Len())
	if meanIA < spec.InterArrival*0.98 || meanIA > spec.InterArrival*1.02 {
		t.Errorf("mean inter-arrival %v, want %v ±2%%", meanIA, spec.InterArrival)
	}
	nodes := append([]int32(nil), gt.Nodes...)
	sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
	if med := float64(nodes[len(nodes)/2]); med < spec.NodesMedian*0.9 || med > spec.NodesMedian*1.1 {
		t.Errorf("median nodes %v, want %v ±10%%", med, spec.NodesMedian)
	}
	durs := append([]int64(nil), gt.Duration...)
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	if med := float64(durs[len(durs)/2]); med < spec.DurMedian*0.95 || med > spec.DurMedian*1.05 {
		t.Errorf("median duration %v, want %v ±5%%", med, spec.DurMedian)
	}
}

// tap is a sink that forwards to the run's own and tells the test too.
type tap struct {
	sink
	onStart, onDepart func(i int, now int64)
}

func (t tap) started(i, j int, now int64) {
	t.sink.started(i, j, now)
	if t.onStart != nil {
		t.onStart(i, now)
	}
}

func (t tap) departed(i, j int, start, now int64) {
	t.sink.departed(i, j, start, now)
	if t.onDepart != nil {
		t.onDepart(i, now)
	}
}

// tapped is coreImpl with a drive that splices the hooks into the run's
// controller before driving it — the seam the stream-vs-detailed
// equivalence, window and memory-flatness tests observe a run through.
func tapped(onStart, onDepart func(i int, now int64)) simImpl {
	im := coreImpl
	im.drive = func(net *sim.Network, cfg *sim.Config, ctrl sim.Controller) error {
		c := ctrl.(*controller)
		c.out = tap{c.out, onStart, onDepart}
		return coreImpl.drive(net, cfg, ctrl)
	}
	return im
}

// Draws the spec's distributions put out of range must saturate at the
// clamps, not wrap in the float-to-integer conversion: a 1e11-node median
// once came out as fifty 2-node jobs. Parameters no clamp can repair are
// refused.
func TestGenerateClampsOutOfRangeDraws(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*GenSpec)
	}{
		{"huge size median", func(sp *GenSpec) { sp.NodesMedian = 1e11 }},
		{"huge duration sigma", func(sp *GenSpec) { sp.DurSigma = 1e3 }},
		{"huge inter-arrival", func(sp *GenSpec) { sp.InterArrival = 1e300 }},
	} {
		spec := genSpecSmall(50)
		tc.edit(&spec)
		gt, err := Generate(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		saturated := 0
		for i := 0; i < gt.Len(); i++ {
			if gt.Nodes[i] < 2 || int(gt.Nodes[i]) > spec.MaxNodes || gt.Duration[i] < 1 || gt.Duration[i] > maxCycle ||
				gt.Arrival[i] < 0 || gt.Arrival[i] > maxCycle || (i > 0 && gt.Arrival[i] < gt.Arrival[i-1]) {
				t.Fatalf("%s: job %d out of range: arrival %d, %d nodes, duration %d",
					tc.name, i, gt.Arrival[i], gt.Nodes[i], gt.Duration[i])
			}
			if int(gt.Nodes[i]) == spec.MaxNodes || gt.Duration[i] == maxCycle || gt.Arrival[i] == maxCycle {
				saturated++
			}
		}
		if saturated < gt.Len()/4 {
			t.Errorf("%s: only %d of %d jobs reached a clamp — the case tests nothing", tc.name, saturated, gt.Len())
		}
	}
	for _, edit := range []func(*GenSpec){
		func(sp *GenSpec) { sp.InterArrival = math.Inf(1) },
		func(sp *GenSpec) { sp.NodesMedian = math.NaN() },
		func(sp *GenSpec) { sp.NodesSigma = math.Inf(1) },
		func(sp *GenSpec) { sp.DurMedian = math.Inf(1) },
		func(sp *GenSpec) { sp.DurSigma = math.NaN() },
		func(sp *GenSpec) { sp.MaxNodes = math.MaxInt32 + 1 },
	} {
		spec := genSpecSmall(50)
		edit(&spec)
		if _, err := Generate(spec, 1); err == nil {
			t.Errorf("Generate accepted %+v", spec)
		}
	}
}

// RanCycles is the cycles the run executed — last departure + 1 for a
// drained trace, wherever that falls relative to the warm-up, and the
// horizon for a trace cut off — and utilisation is taken over it.
func TestStreamRanCycles(t *testing.T) {
	cfg := schedCfg() // warm-up 500
	const nodes = 8
	for _, dur := range []int64{40, 499, 500, 900, 5000} {
		gt := &GenTrace{Arrival: []int64{0}, Nodes: []int32{nodes}, Duration: []int64{dur}}
		res, err := RunGenerated(cfg, gt, DisciplineFCFS)
		if err != nil {
			t.Fatalf("duration %d: %v", dur, err)
		}
		ran, busy := dur+1, dur // departs at cycle dur
		if horizon := cfg.WarmupCycles + cfg.MeasureCycles; dur >= horizon {
			ran, busy = horizon, horizon
		}
		if res.RanCycles != ran {
			t.Errorf("duration %d: RanCycles %d, want %d (last departure %d)", dur, res.RanCycles, ran, res.LastDeparture)
		}
		if want := float64(nodes*busy) / float64(72*ran); res.Utilization != want {
			t.Errorf("duration %d: utilization %v, want %v", dur, res.Utilization, want)
		}
	}
}

// lifecycles runs a generated trace with hooks installed and returns each
// trace job's start and completion cycles plus the run's StreamResult.
func lifecycles(t *testing.T, cfg sim.Config, gt *GenTrace, disc string) (starts, comps []int64, res *StreamResult) {
	t.Helper()
	starts = make([]int64, gt.Len())
	comps = make([]int64, gt.Len())
	for i := range starts {
		starts[i], comps[i] = -1, -1
	}
	im := tapped(
		func(idx int, now int64) { starts[idx] = now },
		func(idx int, now int64) { comps[idx] = now })
	res, err := runGenerated(cfg, gt, disc, im)
	if err != nil {
		t.Fatalf("RunGenerated(%s): %v", disc, err)
	}
	return starts, comps, res
}

// The two admission modes must agree job for job — same start cycle, same
// completion cycle — on any trace both sources can carry, for every
// discipline, and the two networks must have generated the same packets:
// lazy admission into a streaming workload may change what a run keeps,
// never what it simulates. (Delivered legitimately differs: the replay
// runs a 100-cycle tail past the last departure.)
func TestStreamMatchesDetailed(t *testing.T) {
	jobs := 150
	if testing.Short() {
		jobs = 60
	}
	gt, err := Generate(genSpecSmall(jobs), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, disc := range KnownDisciplines() {
		cfg := schedCfg()
		cfg.MeasureCycles = 1 << 20 // cap only: the Finisher ends the run
		starts, comps, res := lifecycles(t, cfg, gt, disc)
		if res.Completed != gt.Len() {
			t.Fatalf("%s: streaming run completed %d/%d jobs", disc, res.Completed, gt.Len())
		}

		cfg2 := schedCfg()
		cfg2.MeasureCycles = res.LastDeparture + 100 // full horizon: no censoring
		det, err := Run(cfg2, expand(gt, disc))
		if err != nil {
			t.Fatalf("Run(%s): %v", disc, err)
		}
		if det.Completed != gt.Len() {
			t.Fatalf("%s: detailed run completed %d/%d jobs", disc, det.Completed, gt.Len())
		}
		for i := range det.Jobs {
			if det.Jobs[i].Start != starts[i] || det.Jobs[i].Completion != comps[i] {
				t.Fatalf("%s job %d: detailed (start %d, completion %d) vs streaming (start %d, completion %d)",
					disc, i, det.Jobs[i].Start, det.Jobs[i].Completion, starts[i], comps[i])
			}
		}
		if det.Sim.Generated() != res.Sim.Generated() {
			t.Fatalf("%s: detailed run generated %d packets, streaming run %d", disc, det.Sim.Generated(), res.Sim.Generated())
		}
	}
}

// A Finisher costs no window: the controller can only finish inside Apply,
// so between its events (arrivals, departures) the engine advances up to a
// global-link latency at a time, and the run still stops right after the
// last departure. Every window starts at an event, a lookahead boundary or
// a watchdog cut, which bounds their number; with one-cycle windows it was
// RanCycles.
func TestStreamAdvancesInWindows(t *testing.T) {
	gt, err := Generate(genSpecSmall(60), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := schedCfg()
	cfg.MeasureCycles = 1 << 20
	events := map[int64]bool{}
	for _, at := range gt.Arrival {
		events[at] = true
	}
	var net *sim.Network
	im := tapped(nil, func(_ int, now int64) { events[now] = true })
	im.build = func(c *sim.Config, wl *workload.Workload) (*sim.Network, error) {
		n, err := coreImpl.build(c, wl)
		net = n
		return n, err
	}
	res, err := runGenerated(cfg, gt, DisciplineEASY, im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != gt.Len() || res.RanCycles != res.LastDeparture+1 {
		t.Fatalf("completed %d/%d jobs, ran %d cycles, last departure at %d", res.Completed, gt.Len(), res.RanCycles, res.LastDeparture)
	}
	lookahead := int64(cfg.LatencyModel.(topology.UniformLatency).Global)
	windows, most := net.EngineWindows(), int64(len(events))+res.RanCycles/lookahead+res.RanCycles/1024+1
	if windows > most || windows*4 > res.RanCycles {
		t.Errorf("%d windows for %d cycles with %d event cycles (at most %d expected, and far fewer than cycles)",
			windows, res.RanCycles, len(events), most)
	}
}

// The benchmark's streamed trace (sched_h6_stream at -seconds 1: h=6
// In-Trns-MM @ 0.3 under EASY, 12,500 jobs of median 8 nodes and 15 cycles
// arriving every 3 cycles, seed 1) executes exactly these router-steps in
// exactly these windows, at one worker and at two. Like the steps/* rows of
// the oracle table, a change may only lower them.
func TestStreamStepsPinned(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("an h=6 trace of 12,500 jobs; the pins run in the full non-race suite")
	}
	const wantSteps, wantWindows = 260_616, 18_280
	cfg := sim.DefaultConfig()
	cfg.Topology = topology.Balanced(6)
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.Seed = 1
	cfg.MeasureCycles = 1 << 40
	gt, err := Generate(GenSpec{
		Jobs:         12_500,
		InterArrival: 3,
		NodesMedian:  8,
		NodesSigma:   0.5,
		MaxNodes:     topology.New(cfg.Topology).NumNodes(),
		DurMedian:    15,
		DurSigma:     0.5,
	}, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var steps, windows int64
		im := coreImpl
		im.drive = func(net *sim.Network, cfg *sim.Config, ctrl sim.Controller) error {
			err := coreImpl.drive(net, cfg, ctrl)
			steps, windows = net.EngineSteps(), net.EngineWindows()
			return err
		}
		cfg.Workers = workers
		res, err := runGenerated(cfg, gt, DisciplineEASY, im)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != gt.Len() {
			t.Fatalf("workers %d: completed %d/%d jobs", workers, res.Completed, gt.Len())
		}
		t.Logf("workers %d: %d router-steps in %d windows over %d cycles", workers, steps, windows, res.RanCycles)
		if steps != wantSteps || windows != wantWindows {
			t.Errorf("workers %d: %d router-steps in %d windows, pinned at %d in %d",
				workers, steps, windows, wantSteps, wantWindows)
		}
	}
}

// One generated trace must produce a bit-identical StreamResult — scalars,
// network measurement and serialized sketch bytes — on the scheduler and
// dense reference engines at Workers 1, 2 and NumCPU.
func TestStreamEngineIdentity(t *testing.T) {
	gt, err := Generate(genSpecSmall(60), 3)
	if err != nil {
		t.Fatal(err)
	}
	var want *StreamResult
	var wantSketches [][]byte
	for _, ec := range engineMatrix() {
		cfg := schedCfg()
		cfg.Workers = ec.workers
		cfg.MeasureCycles = 1 << 20
		res, err := runGenerated(cfg, gt, DisciplineEASY, ec.im)
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		normalizeSim(res.Sim)
		sketches := make([][]byte, 0, 3)
		for _, sk := range []*stats.Sketch{&res.Wait, &res.RunTime, &res.Slowdown} {
			b, err := sk.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: marshal sketch: %v", ec.name, err)
			}
			sketches = append(sketches, b)
		}
		if want == nil {
			want, wantSketches = res, sketches
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: StreamResult differs from %s", ec.name, engineMatrix()[0].name)
		}
		for i := range sketches {
			if !bytes.Equal(sketches[i], wantSketches[i]) {
				t.Fatalf("%s: sketch %d bytes differ from %s", ec.name, i, engineMatrix()[0].name)
			}
		}
	}
}

// liveHeap reports the live heap after a settling GC.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedAtDrain runs a generated trace and measures the live heap at the
// last departure — the moment the whole run (trace, controller, workload,
// network, accumulators) is still reachable.
func retainedAtDrain(t *testing.T, jobs int, seed uint64) uint64 {
	t.Helper()
	spec := GenSpec{
		Jobs:         jobs,
		InterArrival: 3,
		NodesMedian:  8,
		NodesSigma:   0.5,
		MaxNodes:     72,
		DurMedian:    15,
		DurSigma:     0.5,
	}
	gt, err := Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	var live uint64
	completed := 0
	im := tapped(nil, func(int, int64) {
		if completed++; completed == gt.Len() {
			live = liveHeap()
		}
	})
	cfg := schedCfg()
	cfg.MeasureCycles = 1 << 22
	res, err := runGenerated(cfg, gt, DisciplineEASY, im)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != jobs {
		t.Fatalf("completed %d/%d jobs", res.Completed, jobs)
	}
	if live == 0 {
		t.Fatal("memory probe never fired")
	}
	return live
}

// The memory-flatness regression: retained state at end of run must not
// scale with trace length beyond the trace's own ~20 B/job structure-of-
// arrays footprint (the workload's job index spans the jobs admitted since
// the oldest live one, not the trace). A long trace and
// a short one therefore differ by a small constant per job — if someone
// reintroduces a per-job result slice, per-job names, or O(jobs) network
// attribution, the per-job delta jumps by an order of magnitude and this
// test fails.
func TestStreamMemoryFlat(t *testing.T) {
	small, large := 1_000, 50_000
	if testing.Short() {
		small, large = 500, 5_000
	}
	liveSmall := retainedAtDrain(t, small, 5)
	liveLarge := retainedAtDrain(t, large, 5)
	perJob := (float64(liveLarge) - float64(liveSmall)) / float64(large-small)
	t.Logf("live heap at drain: %d jobs → %d B, %d jobs → %d B (%.1f B/job marginal)",
		small, liveSmall, large, liveLarge, perJob)
	const budget = 96 // ~20 B/job trace + slack
	if perJob > budget {
		t.Fatalf("retained memory grows %.1f B/job, budget %d B/job — per-job state is being retained", perJob, budget)
	}
}

// A streamed job costs no allocation once the run has seen its like: Admit
// recycles the records Retire reclaimed, the allocators fill the job's own
// slices, the pattern sub-stream is split into the workload's storage, the
// controller borrows the node list, planStarts works in the controller's
// scratch and the workload's job index is compacted in place instead of
// growing with the trace (it cost ~24 B/job before). What the drive still
// allocates — the engine, the packet pool, calendars reaching their
// capacity: 31 KB here, 41 KB for 8,000 jobs — barely scales with the
// trace, and on the near-idle network of a cluster-lifetime study 2,000
// jobs are enough to drown it: before the free list a job cost ~770 B here.
func TestStreamJobsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	const jobs = 2000
	gt, err := Generate(GenSpec{
		Jobs:         jobs,
		InterArrival: 3,
		NodesMedian:  8,
		NodesSigma:   0.5,
		MaxNodes:     72,
		DurMedian:    15,
		DurSigma:     0.5,
		Load:         0.05,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var allocated uint64
	metered := simImpl{coreImpl.build, func(net *sim.Network, cfg *sim.Config, ctrl sim.Controller) error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := coreImpl.drive(net, cfg, ctrl)
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
		return err
	}}
	cfg := schedCfg()
	cfg.Workers = 1
	cfg.MeasureCycles = 1 << 22
	res, err := runGenerated(cfg, gt, DisciplineEASY, metered)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != jobs {
		t.Fatalf("completed %d/%d jobs", res.Completed, jobs)
	}
	perJob := float64(allocated) / jobs
	t.Logf("%d B allocated after the network build, %.1f B/job", allocated, perJob)
	if perJob > 20 {
		t.Fatalf("the run allocates %.1f B per job after the network build, budget 20", perJob)
	}
}

// The replay source runs the same loop, so an event that places nothing
// costs it no allocation either once the scratch has seen the queue: here a
// packet-target job that never reaches its target makes the loop poll, and
// decide, every cycle, with a blocked head and candidates EASY has to work
// out a shadow time for. (A placement does allocate under an eager source —
// the workload compiles a fresh job record — which is what lazy admission
// is for.) Before the loops were one, this path built a planScratch per
// event.
func TestReplayApplyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation; the gate runs in the non-race CI job")
	}
	spec := func(nodes int) workload.JobSpec { return workload.JobSpec{Nodes: nodes} }
	tr := Trace{Discipline: DisciplineEASY, Jobs: []TraceJob{
		{JobSpec: spec(36), Duration: 1 << 40, DurationKind: DurationPackets},
		{JobSpec: spec(30), Duration: 1 << 40},
		{JobSpec: spec(30), Arrival: 1, Duration: 500},
		{JobSpec: spec(20), Arrival: 2, Duration: 1 << 41},
		{JobSpec: spec(10), Arrival: 3},
		{JobSpec: spec(8), Arrival: 4, Duration: 1 << 41},
	}}
	src, err := newReplay(topology.New(schedCfg().Topology), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &controller{wl: src.wl, src: src, out: make(records, len(tr.Jobs)), disc: tr.Discipline}
	var fake fakeReconfig
	now := ctrl.NextEvent(-1)
	for ; now < 10; now = ctrl.NextEvent(now) {
		ctrl.apply(fake, now)
	}
	if len(ctrl.running) != 2 || len(ctrl.queue) != 4 {
		t.Fatalf("%d running, %d queued after the arrivals; want 2 and 4", len(ctrl.running), len(ctrl.queue))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ctrl.apply(fake, now)
		if next := ctrl.NextEvent(now); next != now+1 {
			t.Fatalf("next event after cycle %d at %d: the loop is not polling", now, next)
		}
		now++
	})
	if allocs != 0 {
		t.Fatalf("an event that places nothing allocates %v times", allocs)
	}
}

// expand turns a generated trace into the detailed per-job form Run
// replays, for cross-checking a streaming run against it.
func expand(gt *GenTrace, disc string) Trace {
	tr := Trace{Discipline: disc, Jobs: make([]TraceJob, gt.Len())}
	for i := range tr.Jobs {
		tr.Jobs[i] = TraceJob{
			JobSpec:      gt.jobSpec(i),
			Arrival:      gt.Arrival[i],
			Duration:     gt.Duration[i],
			DurationKind: durationCycles,
		}
	}
	return tr
}

package scheduler

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"dragonfly/internal/refmodel"
	"dragonfly/internal/rng"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

func schedCfg() sim.Config {
	cfg := sim.DefaultConfig() // balanced h=2: 9 groups, 36 routers, 72 nodes
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1500
	return cfg
}

// engineMatrix runs the trace on every implementation × worker combination
// the acceptance criteria name: the core's scheduler engines and the dense
// oracle at Workers 1, 2 and NumCPU.
type engineCase struct {
	name    string
	workers int
	im      simImpl
}

// oracleImpl is internal/refmodel's (build, drive) pair on ring links.
var oracleImpl = simImpl{
	build: refmodel.NewNetwork,
	drive: refmodel.RunWithController,
}

func engineMatrix() []engineCase {
	cases := []engineCase{
		{"sched-w1", 1, coreImpl},
		{"sched-w2", 2, coreImpl},
		{"sched-wN", runtime.NumCPU(), coreImpl},
		{"ref-w1", 1, oracleImpl},
		{"ref-w2", 2, oracleImpl},
		{"ref-wN", runtime.NumCPU(), oracleImpl},
	}
	return cases
}

// normalizeSim strips the fields that legitimately differ between the
// static and scheduled paths: the pattern display name and the wall clock.
func normalizeSim(r *sim.Result) {
	r.Pattern = ""
	r.Wall = 0
}

// A trace whose jobs all arrive at cycle 0 and never depart must reproduce
// the static workload run bit for bit — the correctness anchor of the whole
// subsystem — across the scheduler and reference engines at Workers
// 1/2/NumCPU. A dynamic trace (staggered arrivals, one departure, one
// recycled allocation) must likewise be bit-identical across the same
// matrix.
func TestScheduleDegenerateMatchesRunWorkload(t *testing.T) {
	cfg := schedCfg()
	spec := workload.Spec{Jobs: []workload.JobSpec{
		{Name: "cons", Nodes: 24, Alloc: workload.AllocConsecutive, Pattern: "UN"},
		{Name: "perm", Nodes: 16, Alloc: workload.AllocSpread, FirstGroup: 4, Load: 0.2, Pattern: "PERM"},
	}}
	wl, err := workload.Compile(topology.New(cfg.Topology), spec, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if want.Delivered() == 0 {
		t.Fatal("static reference run delivered nothing")
	}
	normalizeSim(want)

	tr := Trace{Jobs: []TraceJob{
		{JobSpec: spec.Jobs[0]},
		{JobSpec: spec.Jobs[1]},
	}}
	for _, ec := range engineMatrix() {
		c := cfg
		c.Workers = ec.workers
		res, err := run(c, tr, ec.im)
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		normalizeSim(res.Sim)
		if !reflect.DeepEqual(want, res.Sim) {
			t.Errorf("%s: degenerate trace diverges from the static workload run", ec.name)
		}
		for j, jr := range res.Jobs {
			if jr.Start != 0 || jr.Wait != 0 || jr.Completion != -1 {
				t.Errorf("%s: job %d lifecycle %+v, want start 0 / never completed", ec.name, j, jr)
			}
		}
	}

	// Dynamic trace: staggered arrivals, a cycle-budget departure, and a
	// later consecutive job that recycles the freed allocation.
	dyn := Trace{Jobs: []TraceJob{
		{JobSpec: workload.JobSpec{Name: "a", Nodes: 16, Alloc: workload.AllocConsecutive, Load: 0.4},
			Arrival: 0, Duration: 600, DurationKind: durationCycles},
		{JobSpec: workload.JobSpec{Name: "b", Nodes: 24, Alloc: workload.AllocSpread, FirstGroup: 4, Load: 0.2},
			Arrival: 150},
		{JobSpec: workload.JobSpec{Name: "c", Nodes: 16, Alloc: workload.AllocConsecutive},
			Arrival: 700, Duration: 300, DurationKind: DurationPackets},
	}}
	var base *Result
	for _, ec := range engineMatrix() {
		c := cfg
		c.Workers = ec.workers
		res, err := run(c, dyn, ec.im)
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		normalizeSim(res.Sim)
		if base == nil {
			base = res
			// The trace must actually exercise the dynamic machinery:
			// job a departs, job c recycles its exact allocation.
			if res.Jobs[0].Completion != 600 {
				t.Fatalf("job a completion %d, want 600", res.Jobs[0].Completion)
			}
			if res.Jobs[2].Start != 700 || res.Jobs[2].Completion < 0 {
				t.Fatalf("job c lifecycle %+v, want start 700 and completion", res.Jobs[2])
			}
			if !reflect.DeepEqual(res.Jobs[0].Routers, res.Jobs[2].Routers) {
				t.Fatalf("job c routers %v did not recycle job a's %v",
					res.Jobs[2].Routers, res.Jobs[0].Routers)
			}
			if res.Jobs[2].Delivered < 300 {
				t.Fatalf("packet-target job delivered %d < target 300", res.Jobs[2].Delivered)
			}
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("%s: dynamic trace diverges from sched-w1", ec.name)
		}
	}
}

// A recycled node's packets must count toward its new job only: job a
// departs mid-measurement with packets still in flight, and job b — placed
// on the very same nodes, generating nothing (it inherits the run load of
// 0) — must end the run with every counter at zero. Attribution by live
// node→job lookup instead of the generation-time stamp would book a's
// draining packets to b.
func TestRecycledNodesDoNotInheritInFlightPackets(t *testing.T) {
	cfg := schedCfg()
	cfg.Load = 0 // jobs without their own load stay silent
	tr := Trace{Jobs: []TraceJob{
		{JobSpec: workload.JobSpec{Name: "a", Nodes: 16, Alloc: workload.AllocConsecutive, Load: 0.6},
			Arrival: 0, Duration: 1000, DurationKind: durationCycles},
		{JobSpec: workload.JobSpec{Name: "b", Nodes: 16, Alloc: workload.AllocConsecutive},
			Arrival: 1000},
	}}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Start != 1000 {
		t.Fatalf("job b start %d, want 1000 (same cycle as a's departure)", res.Jobs[1].Start)
	}
	if !reflect.DeepEqual(res.Jobs[0].Routers, res.Jobs[1].Routers) {
		t.Fatalf("job b routers %v did not recycle a's %v", res.Jobs[1].Routers, res.Jobs[0].Routers)
	}
	ja, jb := res.Sim.JobTotal(0), res.Sim.JobTotal(1)
	if ja.Delivered == 0 {
		t.Fatal("job a delivered nothing in the measurement window — test exercises nothing")
	}
	if jb.Generated != 0 || jb.Injected != 0 || jb.Delivered != 0 || jb.DeliveredPhits != 0 {
		t.Errorf("silent recycled job b has stats %+v — stale attribution of a's in-flight packets", jb)
	}
	if res.Jobs[1].Delivered != 0 {
		t.Errorf("job b live delivered %d, want 0", res.Jobs[1].Delivered)
	}
}

// Randomized allocate/free sequences: whatever the arrival/departure/
// recycling pattern, per-job counters must partition the global ones
// exactly and the run must stay bit-identical across engines and worker
// counts.
func TestRandomTracesPartitionAndBitIdentical(t *testing.T) {
	cfg := schedCfg()
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 1200
	allocs := []string{workload.AllocConsecutive, workload.AllocRandom, workload.AllocSpread}
	for seed := uint64(1); seed <= 4; seed++ {
		rnd := rng.New(seed * 977)
		tr := Trace{}
		if rnd.Intn(2) == 1 {
			tr.Discipline = disciplineBackfill
		}
		jobs := 3 + rnd.Intn(3)
		for i := 0; i < jobs; i++ {
			tj := TraceJob{JobSpec: workload.JobSpec{
				Nodes: 4 + 2*rnd.Intn(9),
				Alloc: allocs[rnd.Intn(len(allocs))],
				// Bias first groups to collide so freed routers are recycled.
				FirstGroup: rnd.Intn(2),
				Load:       []float64{0, 0.2, 0.5}[rnd.Intn(3)],
			}}
			tj.Arrival = int64(rnd.Intn(900))
			switch rnd.Intn(3) {
			case 0: // runs forever
			case 1:
				tj.Duration, tj.DurationKind = int64(200+rnd.Intn(600)), durationCycles
			case 2:
				tj.Duration, tj.DurationKind = int64(50+rnd.Intn(300)), DurationPackets
			}
			tr.Jobs = append(tr.Jobs, tj)
		}

		cfgSeed := cfg
		cfgSeed.Seed = seed
		var base *Result
		for _, ec := range engineMatrix() {
			c := cfgSeed
			c.Workers = ec.workers
			res, err := run(c, tr, ec.im)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, ec.name, err)
			}
			normalizeSim(res.Sim)
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(base, res) {
				t.Errorf("seed %d %s: diverges from sched-w1", seed, ec.name)
			}
		}

		var gen, inj, del int64
		for j := 0; j < base.Sim.NumJobs(); j++ {
			jt := base.Sim.JobTotal(j)
			gen += jt.Generated
			inj += jt.Injected
			del += jt.Delivered
		}
		if gen != base.Sim.Generated() {
			t.Errorf("seed %d: job Generated sum %d != global %d", seed, gen, base.Sim.Generated())
		}
		var injTotal int64
		for _, v := range base.Sim.Injections() {
			injTotal += v
		}
		if inj != injTotal {
			t.Errorf("seed %d: job Injected sum %d != global %d", seed, inj, injTotal)
		}
		if del != base.Sim.Delivered() {
			t.Errorf("seed %d: job Delivered sum %d != global %d", seed, del, base.Sim.Delivered())
		}
	}
}

// FCFS must let a blocked head starve everything behind it; backfill must
// start later jobs that fit around the blocked head.
func TestDisciplines(t *testing.T) {
	cfg := schedCfg()
	// 36 routers. a holds 20 forever; b (20) can never start; c (8) fits.
	jobs := []TraceJob{
		{JobSpec: workload.JobSpec{Name: "a", Nodes: 40, Alloc: workload.AllocConsecutive}, Arrival: 0},
		{JobSpec: workload.JobSpec{Name: "b", Nodes: 40, Alloc: workload.AllocConsecutive}, Arrival: 100},
		{JobSpec: workload.JobSpec{Name: "c", Nodes: 16, Alloc: workload.AllocSpread},
			Arrival: 200, Duration: 500, DurationKind: durationCycles},
	}

	fcfs, err := Run(cfg, Trace{Discipline: DisciplineFCFS, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if fcfs.Jobs[1].Start != -1 || fcfs.Jobs[2].Start != -1 {
		t.Errorf("FCFS started jobs behind a blocked head: %+v", fcfs.Jobs)
	}
	if fcfs.Completed != 0 || fcfs.Makespan != -1 {
		t.Errorf("FCFS aggregates: completed %d makespan %d", fcfs.Completed, fcfs.Makespan)
	}

	bf, err := Run(cfg, Trace{Discipline: disciplineBackfill, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if bf.Jobs[1].Start != -1 {
		t.Errorf("backfill started job b, which never fits while a runs")
	}
	c := bf.Jobs[2]
	if c.Start != 200 || c.Completion != 700 || c.Run != 500 || c.Wait != 0 {
		t.Errorf("backfilled job c lifecycle %+v, want start 200 completion 700", c)
	}
	if c.Slowdown != 1 {
		t.Errorf("backfilled job c slowdown %v, want 1 (no wait)", c.Slowdown)
	}
	if bf.Completed != 1 || bf.Makespan != 700 {
		t.Errorf("backfill aggregates: completed %d makespan %d", bf.Completed, bf.Makespan)
	}
	if got := bf.SlowdownQuantile(0.5); got != 1 {
		t.Errorf("slowdown P50 %v, want 1", got)
	}
}

// A packet-target job departs only once its live delivered counter reaches
// the target, and its wait/run/slowdown follow from the recorded cycles.
func TestPacketTargetCompletion(t *testing.T) {
	cfg := schedCfg()
	tr := Trace{Jobs: []TraceJob{
		{JobSpec: workload.JobSpec{Name: "p", Nodes: 16, Alloc: workload.AllocConsecutive, Load: 0.4},
			Arrival: 50, Duration: 200, DurationKind: DurationPackets},
	}}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Start != 50 || j.Completion <= j.Start {
		t.Fatalf("lifecycle %+v", j)
	}
	if j.Delivered < 200 {
		t.Errorf("delivered %d < target 200 at completion", j.Delivered)
	}
	if j.Wait != 0 || j.Run != j.Completion-j.Start || j.Slowdown != 1 {
		t.Errorf("derived metrics wrong: %+v", j)
	}
}

func TestTraceValidation(t *testing.T) {
	p := topology.Balanced(2)
	good := Trace{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8}}}}
	if err := good.Validate(p); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []Trace{
		{},
		{Discipline: "sjf", Jobs: good.Jobs},
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8}, Arrival: -1}}},
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8}, Duration: 5, DurationKind: "phases"}}},
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8}, DurationKind: durationCycles}}},
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8}, Duration: 5, DurationKind: durationNone}}},
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8, Pattern: "NOPE"}}}},
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8, Alloc: "hilbert"}}}},
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Name: "x", Nodes: 8}}, {JobSpec: workload.JobSpec{Name: "x", Nodes: 8}}}},
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 10000}}}}, // can never fit
		// start + budget would wrap negative and the job "depart" at once
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8}, Arrival: 5, Duration: math.MaxInt64}}},
		{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8}, Arrival: maxCycle + 1}}},
	}
	edge := Trace{Jobs: []TraceJob{{JobSpec: workload.JobSpec{Nodes: 8}, Arrival: maxCycle, Duration: maxCycle}}}
	if err := edge.Validate(p); err != nil {
		t.Errorf("trace at the 2^61 bounds rejected: %v", err)
	}
	for i, tr := range bad {
		if err := tr.Validate(p); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
	if err := ValidateDiscipline("sjf"); err == nil {
		t.Error("unknown discipline accepted")
	}
	if err := ValidateDiscipline(""); err != nil {
		t.Error("empty discipline (FCFS default) rejected")
	}
}

func TestParseTraceJob(t *testing.T) {
	tj, err := ParseTraceJob("name=a, nodes=24,alloc=spread,load=0.25,arrival=1000,duration=400,dkind=packets")
	if err != nil {
		t.Fatal(err)
	}
	if tj.Name != "a" || tj.Nodes != 24 || tj.Alloc != "spread" || tj.Load != 0.25 {
		t.Errorf("job spec %+v", tj.JobSpec)
	}
	if tj.Arrival != 1000 || tj.Duration != 400 || tj.DurationKind != DurationPackets {
		t.Errorf("trace fields %+v", tj)
	}
	if _, err := ParseTraceJob("nodes=8,arrival=oops"); err == nil {
		t.Error("bad arrival accepted")
	}
	if _, err := ParseTraceJob("nodes=8,bogus=1"); err == nil {
		t.Error("unknown key accepted")
	}
}

// FuzzParseTraceJob holds the -job grammar to what a command line may do to
// it: ParseTraceJob never panics, parses deterministically, and whatever it
// accepts Trace.Validate judges — with an error, never a panic, and never
// passing a job larger than the machine. Seeds are the examples of
// cmd/dfsched's usage comment and workload.ParseJob's tests, plus the
// inputs that got through: a job size whose router count wrapped negative,
// validated, and panicked in Run (makeslice); and the non-finite and absurd
// loads and duties ParseFloat accepts, which no range check downstream
// could see (NaN compares false with everything); and a cycle budget near
// MaxInt64, whose departure cycle wrapped negative.
func FuzzParseTraceJob(f *testing.F) {
	for _, seed := range []string{
		"",
		"nodes=72,alloc=consecutive,load=0.4,arrival=0",
		"nodes=18,arrival=1500,duration=1000,dkind=packets",
		"name=a,nodes=72,alloc=spread,load=0.3,arrival=1000,duration=5000",
		"name=a, nodes=72,alloc=SPREAD,first=3,pattern=PERM,load=0.25,phase=bursty,period=600,duty=0.5",
		"nodes=8,phase=switch,period=500,patterns=UN/SHIFT+1",
		"nodes", "nodes=x", "bogus=1", "load=abc", "nodes=8,arrival=oops",
		"nodes=9223372036854775807",
		"nodes=8,load=NaN", "nodes=8,load=Inf", "nodes=8,load=1e308",
		"nodes=8,phase=bursty,period=600,duty=NaN",
		"nodes=8,arrival=5,duration=9223372036854775807",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tj, err := ParseTraceJob(s)
		if err != nil {
			return
		}
		again, err := ParseTraceJob(s)
		if err != nil {
			t.Fatalf("second parse of %q failed: %v", s, err)
		}
		if !reflect.DeepEqual(tj, again) {
			t.Fatalf("%q parsed to %#v, then to %#v", s, tj, again)
		}
		if !(tj.Load >= 0 && tj.Load <= 1 && tj.Phase.Duty >= 0 && tj.Phase.Duty <= 1) {
			t.Fatalf("%q parsed to load %v, duty %v", s, tj.Load, tj.Phase.Duty)
		}
		machine := topology.Balanced(2)
		if err := (Trace{Jobs: []TraceJob{tj}}).Validate(machine); err != nil {
			return
		}
		if tj.Nodes > machine.Nodes() {
			t.Fatalf("%q: a %d-node job validated on a %d-node machine", s, tj.Nodes, machine.Nodes())
		}
		norm, _ := (Trace{Jobs: []TraceJob{tj}}).normalized()
		if j := norm.Jobs[0]; j.DurationKind == durationCycles && j.Arrival+j.Duration < 0 {
			t.Fatalf("%q: validated, but arrival %d + budget %d wraps to a negative departure cycle", s, j.Arrival, j.Duration)
		}
	})
}

// Placing a job twice or releasing an unplaced job is a scheduler bug and
// must fail loudly; running out of capacity surfaces ErrNoCapacity.
func TestDynamicWorkloadLifecycleErrors(t *testing.T) {
	topo := topology.New(topology.Balanced(2))
	wl := workload.NewDynamic(topo, 1)
	a, err := wl.Admit(workload.JobSpec{Name: "a", Nodes: topo.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := wl.Admit(workload.JobSpec{Name: "b", Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Place(a); err != nil {
		t.Fatal(err)
	}
	if err := wl.Place(a); err == nil {
		t.Error("double placement accepted")
	}
	if err := wl.Place(b); !errors.Is(err, workload.ErrNoCapacity) {
		t.Errorf("full machine placement returned %v, want ErrNoCapacity", err)
	}
	wl.Release(a)
	if err := wl.Place(b); err != nil {
		t.Errorf("placement after release failed: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	wl.Release(a)
}

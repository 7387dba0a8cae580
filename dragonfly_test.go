package dragonfly

import (
	"reflect"
	"runtime"
	"testing"

	"dragonfly/internal/topology"
)

func TestPublicQuickstart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.3
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() <= 0 {
		t.Error("no throughput")
	}
	if res.AvgLatency() <= 0 {
		t.Error("no latency")
	}
	f := res.Fairness()
	if f.MinInj < 0 || f.Jain <= 0 {
		t.Errorf("bad fairness %+v", f)
	}
}

func TestMechanismsList(t *testing.T) {
	ms := Mechanisms()
	if len(ms) < 8 {
		t.Fatalf("only %d mechanisms", len(ms))
	}
	for _, m := range ms {
		cfg := DefaultConfig()
		cfg.Mechanism = m
		if err := cfg.Validate(); err != nil {
			t.Errorf("registered mechanism %q fails validation: %v", m, err)
		}
	}
}

func TestBalancedHelper(t *testing.T) {
	p := Balanced(6)
	if p.Nodes() != 5256 {
		t.Errorf("Balanced(6) has %d nodes", p.Nodes())
	}
}

func TestPaperConfigRuns(t *testing.T) {
	cfg := PaperConfig()
	// Shrink the cycle counts to keep the public smoke test fast; the
	// topology stays the paper's.
	cfg.WarmupCycles = 50
	cfg.MeasureCycles = 100
	cfg.Load = 0.05
	cfg.Workers = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 5256 {
		t.Errorf("nodes = %d", res.Nodes)
	}
}

func TestNewNetworkExposed(t *testing.T) {
	cfg := DefaultConfig()
	net, err := NewNetwork(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Routers) != cfg.Topology.Routers() {
		t.Errorf("router count %d", len(net.Routers))
	}
}

func TestRunWorkloadPublicAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1000
	spec := WorkloadSpec{Jobs: []WorkloadJob{
		{Name: "a", Nodes: 16, Alloc: "consecutive"},
		{Name: "b", Nodes: 16, Alloc: "spread", FirstGroup: 4},
	}}
	wl, err := CompileWorkload(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCompiledWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumJobs() != 2 {
		t.Fatalf("NumJobs = %d", res.NumJobs())
	}
	for j := 0; j < res.NumJobs(); j++ {
		if res.JobThroughput(j) <= 0 || res.JobAvgLatency(j) <= 0 {
			t.Errorf("job %s has empty metrics", res.JobNames[j])
		}
	}
	// The one-call form produces the identical result (same compile seed).
	again, err := RunWorkload(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Throughput() != res.Throughput() {
		t.Error("RunWorkload diverges from CompileWorkload+RunCompiledWorkload")
	}
	ratios, err := JobInterference(cfg, wl, res)
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range ratios {
		if r <= 0 {
			t.Errorf("job %d interference ratio %v", j, r)
		}
	}
}

// The N×N solo-vs-paired matrix: for a three-job workload the diagonal is
// 1 by definition, every off-diagonal entry is a positive ratio, and two
// jobs placed on top of each other interfere more than with a distant
// third — and the matrix is deterministic regardless of pool width.
func TestJobInterferenceMatrix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1000
	spec := WorkloadSpec{Jobs: []WorkloadJob{
		{Name: "a", Nodes: 16, Alloc: "consecutive"},
		{Name: "b", Nodes: 16, Alloc: "spread", FirstGroup: 4},
		{Name: "c", Nodes: 16, Alloc: "spread", FirstGroup: 6},
	}}
	wl, err := CompileWorkload(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := JobInterferenceMatrix(cfg, wl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("matrix has %d rows", len(m))
	}
	for i := range m {
		if len(m[i]) != 3 {
			t.Fatalf("row %d has %d columns", i, len(m[i]))
		}
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d][%d] = %v, want 1", i, i, m[i][i])
		}
		for j := range m[i] {
			if i != j && m[i][j] <= 0 {
				t.Errorf("entry [%d][%d] = %v, want positive ratio", i, j, m[i][j])
			}
		}
	}
	serial, err := JobInterferenceMatrix(cfg, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m[i] {
			if m[i][j] != serial[i][j] {
				t.Fatalf("matrix not deterministic across pool widths at [%d][%d]: %v vs %v",
					i, j, m[i][j], serial[i][j])
			}
		}
	}
}

// The interference-matrix path — Subset sub-workloads included — must work
// under non-default latency models too, not just the uniform Table I one:
// groupskew runs of subsets stay bit-identical across engine worker counts
// and the matrix keeps its shape invariants.
func TestInterferenceMatrixUnderGroupSkew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1000
	cfg.LatencyModel = topology.GroupSkewLatency{Local: 10, GlobalBase: 100, GlobalStep: 20}
	spec := WorkloadSpec{Jobs: []WorkloadJob{
		{Name: "a", Nodes: 16, Alloc: "consecutive"},
		{Name: "b", Nodes: 16, Alloc: "spread", FirstGroup: 4},
		{Name: "c", Nodes: 16, Alloc: "spread", FirstGroup: 6},
	}}
	wl, err := CompileWorkload(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Subset runs under groupskew: bit-identical across Workers 1/2/NumCPU.
	pair := wl.Subset(0, 2)
	var want *Result
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		c := cfg
		c.Workers = workers
		res, err := RunCompiledWorkload(c, pair)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = res
			if want.Delivered() == 0 {
				t.Fatal("groupskew subset run delivered nothing")
			}
			if jt := res.JobTotal(1); jt.Delivered != 0 {
				t.Fatalf("silenced job b delivered %d packets in the subset", jt.Delivered)
			}
			continue
		}
		w, r := *want, *res
		w.Wall, r.Wall = 0, 0
		if !reflect.DeepEqual(w, r) {
			t.Fatalf("workers=%d: result diverges under groupskew", workers)
		}
	}

	// The full matrix under groupskew keeps its invariants: diagonal 1,
	// positive ratios, deterministic across pool widths.
	m, err := JobInterferenceMatrix(cfg, wl, 0)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := JobInterferenceMatrix(cfg, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d][%d] = %v, want 1", i, i, m[i][i])
		}
		for j := range m[i] {
			if i != j && m[i][j] <= 0 {
				t.Errorf("entry [%d][%d] = %v, want positive ratio", i, j, m[i][j])
			}
			if m[i][j] != serial[i][j] {
				t.Fatalf("groupskew matrix not deterministic across pool widths at [%d][%d]", i, j)
			}
		}
	}
}

// RunSchedule through the public facade: the degenerate one-job trace is
// RunWithAppTraffic's scenario as a scheduled run.
func TestRunSchedulePublicAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1000
	res, err := RunSchedule(cfg, ScheduleTrace{
		Discipline: "backfill",
		Jobs: []ScheduleJob{
			{JobSpec: WorkloadJob{Name: "app", Nodes: 24, Alloc: "consecutive"}},
			{JobSpec: WorkloadJob{Name: "late", Nodes: 8, Alloc: "spread"},
				Arrival: 400, Duration: 600, DurationKind: "cycles"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.Throughput() <= 0 {
		t.Error("no throughput")
	}
	if res.Completed != 1 || res.Makespan != 1000 {
		t.Errorf("completed %d makespan %d, want 1 completed at 1000", res.Completed, res.Makespan)
	}
	if res.Jobs[1].Slowdown != 1 {
		t.Errorf("uncontended late job slowdown %v, want 1", res.Jobs[1].Slowdown)
	}
}

func TestRunWithAppTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Load = 0.3
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1000
	res, err := RunWithAppTraffic(cfg, 0, cfg.Topology.H+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() <= 0 {
		t.Error("application traffic delivered nothing")
	}
}

package sweep

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dragonfly/internal/sim"
)

func testGrid() Grid {
	base := sim.DefaultConfig()
	base.WarmupCycles = 300
	base.MeasureCycles = 600
	return Grid{
		Base:       base,
		Mechanisms: []string{"MIN", "Obl-RRG"},
		Patterns:   []string{"UN"},
		Loads:      []float64{0.1, 0.2},
		Seeds:      []uint64{1, 2},
	}
}

// RunTasks must call fn exactly once per index, for any worker count —
// including workers exceeding the task count and the NumCPU default.
func TestRunTasksCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 37
		var hits [n]atomic.Int64
		RunTasks(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
	RunTasks(0, 4, func(int) { t.Fatal("fn called for empty task set") })
}

func TestPointsExpansion(t *testing.T) {
	g := testGrid()
	pts := g.Points()
	if len(pts) != 2*1*2*2 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	// Deterministic order: mechanisms outermost, seeds innermost.
	if pts[0].Mechanism != "MIN" || pts[0].Load != 0.1 || pts[0].Seed != 1 {
		t.Errorf("first point %+v", pts[0])
	}
	if pts[1].Seed != 2 {
		t.Errorf("second point %+v should differ only in seed", pts[1])
	}
	if pts[len(pts)-1].Mechanism != "Obl-RRG" || pts[len(pts)-1].Load != 0.2 {
		t.Errorf("last point %+v", pts[len(pts)-1])
	}
}

func TestRunAndAggregate(t *testing.T) {
	g := testGrid()
	var calls atomic.Int64
	samples := g.Run(func(done, total int) {
		calls.Add(1)
		if total != 8 {
			t.Errorf("progress total = %d", total)
		}
	})
	if len(samples) != 8 {
		t.Fatalf("%d samples", len(samples))
	}
	if calls.Load() != 8 {
		t.Errorf("progress called %d times", calls.Load())
	}
	for _, s := range samples {
		if s.Err != nil {
			t.Fatalf("%+v: %v", s.Point, s.Err)
		}
		if s.Result == nil {
			t.Fatalf("%+v: nil result", s.Point)
		}
	}

	series, err := Aggregate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 { // 2 mechanisms x 2 loads, seeds folded
		t.Fatalf("%d series, want 4", len(series))
	}
	for _, s := range series {
		if s.Seeds != 2 {
			t.Errorf("%s@%v aggregated %d seeds, want 2", s.Mechanism, s.Load, s.Seeds)
		}
		if s.Throughput <= 0 || s.AvgLatency <= 0 {
			t.Errorf("%s@%v has empty metrics", s.Mechanism, s.Load)
		}
		if len(s.Injections) == 0 {
			t.Errorf("%s@%v lost the injection vector", s.Mechanism, s.Load)
		}
	}
	// Sorted by mechanism then load.
	for i := 1; i < len(series); i++ {
		a, b := series[i-1], series[i]
		if a.Mechanism > b.Mechanism || (a.Mechanism == b.Mechanism && a.Load >= b.Load) {
			t.Errorf("series not sorted: %s@%v after %s@%v", b.Mechanism, b.Load, a.Mechanism, a.Load)
		}
	}
}

// Aggregation must average, not sum: one seed vs two identical-seed runs
// give the same series values.
func TestAggregateAverages(t *testing.T) {
	g := testGrid()
	g.Mechanisms = []string{"MIN"}
	g.Loads = []float64{0.1}
	g.Seeds = []uint64{5}
	one, err := Aggregate(g.Run(nil))
	if err != nil {
		t.Fatal(err)
	}
	g.Seeds = []uint64{5, 5}
	two, err := Aggregate(g.Run(nil))
	if err != nil {
		t.Fatal(err)
	}
	if one[0].Throughput != two[0].Throughput || one[0].AvgLatency != two[0].AvgLatency {
		t.Errorf("averaging broken: %v vs %v", one[0].Throughput, two[0].Throughput)
	}
}

func TestAggregateReportsErrors(t *testing.T) {
	g := testGrid()
	samples := g.Run(nil)
	samples[0].Err = errFake{}
	series, err := Aggregate(samples)
	if err == nil {
		t.Fatal("error sample not reported")
	}
	if !strings.Contains(err.Error(), "MIN") {
		t.Errorf("error lacks context: %v", err)
	}
	// The failing sample is skipped, the rest aggregated.
	for _, s := range series {
		if s.Mechanism == "MIN" && s.Load == 0.1 && s.Seeds != 1 {
			t.Errorf("failed seed not skipped: %d", s.Seeds)
		}
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

func TestWorkersBound(t *testing.T) {
	g := testGrid()
	g.Workers = 3
	samples := g.Run(nil)
	for _, s := range samples {
		if s.Err != nil {
			t.Fatal(s.Err)
		}
	}
}

// The raw samples — not just the aggregated series — must be bit-identical
// for any Workers value: each simulation is self-contained and the pool
// only changes scheduling order, never results.
func TestRunSamplesIdenticalAcrossWorkers(t *testing.T) {
	ref := testGrid()
	ref.Workers = 1
	want := ref.Run(nil)
	for _, workers := range []int{2, runtime.NumCPU()} {
		g := testGrid()
		g.Workers = workers
		got := g.Run(nil)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Point != want[i].Point {
				t.Fatalf("workers=%d: sample %d is %+v, want %+v — order not deterministic",
					workers, i, got[i].Point, want[i].Point)
			}
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d: sample %d error mismatch", workers, i)
			}
			if !sameResult(got[i].Result, want[i].Result) {
				t.Fatalf("workers=%d: sample %d result diverges", workers, i)
			}
		}
	}
}

// sameResult reports whether two results are one measurement: every field
// but the host time.
func sameResult(a, b *sim.Result) bool {
	x, y := *a, *b
	x.Wall, y.Wall = 0, 0
	return reflect.DeepEqual(x, y)
}

// When a seed fails, Aggregate must report it but still average the
// surviving seeds — the series values must equal a run over the surviving
// seeds alone.
func TestAggregateAveragesSurvivingSeeds(t *testing.T) {
	g := testGrid()
	g.Mechanisms = []string{"MIN"}
	g.Loads = []float64{0.1}
	g.Seeds = []uint64{1, 2}
	samples := g.Run(nil)
	// Fail seed 2 (samples are in Points order: seed 1 then seed 2).
	samples[1].Err = errFake{}
	series, err := Aggregate(samples)
	if err == nil {
		t.Fatal("failed seed not reported")
	}
	if !strings.Contains(err.Error(), "seed 2") || !strings.Contains(err.Error(), "fake") {
		t.Errorf("error lacks point context: %v", err)
	}
	if len(series) != 1 || series[0].Seeds != 1 {
		t.Fatalf("series %+v", series)
	}

	g.Seeds = []uint64{1}
	want, werr := Aggregate(g.Run(nil))
	if werr != nil {
		t.Fatal(werr)
	}
	if series[0].Throughput != want[0].Throughput || series[0].AvgLatency != want[0].AvgLatency {
		t.Errorf("surviving-seed average %v/%v differs from solo run %v/%v",
			series[0].Throughput, series[0].AvgLatency, want[0].Throughput, want[0].AvgLatency)
	}
	for i := range want[0].Injections {
		if series[0].Injections[i] != want[0].Injections[i] {
			t.Fatalf("injection vector polluted by the failed seed at router %d", i)
		}
	}
}

// Sweep results must not depend on the worker count.
func TestSweepDeterministic(t *testing.T) {
	g1 := testGrid()
	g1.Workers = 1
	g2 := testGrid()
	g2.Workers = 4
	s1, _ := Aggregate(g1.Run(nil))
	s2, _ := Aggregate(g2.Run(nil))
	if len(s1) != len(s2) {
		t.Fatal("series count differs")
	}
	for i := range s1 {
		if s1[i].Throughput != s2[i].Throughput || s1[i].AvgLatency != s2[i].AvgLatency {
			t.Fatalf("series %d differs across worker counts", i)
		}
	}
}

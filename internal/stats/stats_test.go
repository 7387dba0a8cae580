package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMergeAddsCounters(t *testing.T) {
	a := Router{Injected: 1, Generated: 2, Backlogged: 3, Delivered: 4,
		DeliveredPhits: 32, LatencySum: 100, MaxLatency: 50, BaseSum: 60,
		MisrouteSum: 10, WaitInjSum: 5, WaitLocalSum: 15, WaitGlobalSum: 20,
		LastActivity: 7}
	b := Router{Injected: 10, Generated: 20, Backlogged: 30, Delivered: 40,
		DeliveredPhits: 320, LatencySum: 1000, MaxLatency: 20, BaseSum: 600,
		MisrouteSum: 100, WaitInjSum: 50, WaitLocalSum: 150, WaitGlobalSum: 200,
		LastActivity: 3}
	a.Merge(&b)
	if a.Injected != 11 || a.Generated != 22 || a.Backlogged != 33 || a.Delivered != 44 {
		t.Errorf("counter merge wrong: %+v", a)
	}
	if a.DeliveredPhits != 352 || a.LatencySum != 1100 {
		t.Errorf("sum merge wrong: %+v", a)
	}
	if a.MaxLatency != 50 {
		t.Errorf("MaxLatency merge = %d, want max 50", a.MaxLatency)
	}
	if a.LastActivity != 7 {
		t.Errorf("LastActivity merge = %d, want max 7", a.LastActivity)
	}
}

func TestMergeTakesMax(t *testing.T) {
	a := Router{MaxLatency: 10, LastActivity: 1}
	b := Router{MaxLatency: 99, LastActivity: 88}
	a.Merge(&b)
	if a.MaxLatency != 99 || a.LastActivity != 88 {
		t.Errorf("max merge wrong: %+v", a)
	}
}

// Job merges must fold the per-job latency histograms so workload results
// can report per-job percentiles from merged router accumulators.
func TestJobMergeFoldsHistogram(t *testing.T) {
	var a, b Job
	a.Latencies.Observe(100)
	a.Latencies.Observe(3000)
	b.Latencies.Observe(100)
	a.Merge(&b)
	if got := a.Latencies.count(); got != 3 {
		t.Fatalf("merged histogram has %d samples, want 3", got)
	}
	if p50 := a.Latencies.Quantile(0.5); p50 < 100 || p50 > 256 {
		t.Errorf("merged p50 %d outside the 100-cycle bucket", p50)
	}
	if p99 := a.Latencies.Quantile(0.99); p99 < 3000 {
		t.Errorf("merged p99 %d below the 3000-cycle sample", p99)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Base: 1, Misroute: 2, WaitLocal: 3, WaitGlobal: 4, WaitInj: 5}
	if got := b.Total(); got != 15 {
		t.Errorf("Total() = %v, want 15", got)
	}
}

func TestFairnessEmpty(t *testing.T) {
	f := ComputeFairness(nil)
	if f.MinInj != 0 || f.MaxMin != 0 || f.CoV != 0 {
		t.Errorf("empty fairness = %+v, want zero", f)
	}
}

func TestFairnessUniform(t *testing.T) {
	f := ComputeFairness([]int64{100, 100, 100, 100})
	if f.MinInj != 100 || f.MaxInj != 100 {
		t.Errorf("min/max = %v/%v", f.MinInj, f.MaxInj)
	}
	if f.MaxMin != 1 {
		t.Errorf("MaxMin = %v, want 1", f.MaxMin)
	}
	if f.CoV != 0 {
		t.Errorf("CoV = %v, want 0", f.CoV)
	}
	if math.Abs(f.Jain-1) > 1e-12 {
		t.Errorf("Jain = %v, want 1", f.Jain)
	}
}

func TestFairnessKnownValues(t *testing.T) {
	// counts 1,2,3: mean 2, variance 2/3, sigma 0.8165, CoV 0.40825.
	f := ComputeFairness([]int64{1, 2, 3})
	if f.MinInj != 1 || f.MaxInj != 3 || f.MaxMin != 3 {
		t.Errorf("min/max/ratio = %v/%v/%v", f.MinInj, f.MaxInj, f.MaxMin)
	}
	if math.Abs(f.CoV-math.Sqrt(2.0/3.0)/2) > 1e-12 {
		t.Errorf("CoV = %v", f.CoV)
	}
	// Jain = (6)^2 / (3*14) = 36/42.
	if math.Abs(f.Jain-36.0/42.0) > 1e-12 {
		t.Errorf("Jain = %v", f.Jain)
	}
}

func TestFairnessStarvation(t *testing.T) {
	f := ComputeFairness([]int64{0, 100, 100})
	if !math.IsInf(f.MaxMin, 1) {
		t.Errorf("MaxMin with a starved router = %v, want +Inf", f.MaxMin)
	}
}

func TestFairnessAllZero(t *testing.T) {
	f := ComputeFairness([]int64{0, 0, 0})
	if f.MaxMin != 1 || f.CoV != 0 || f.Jain != 1 {
		t.Errorf("all-zero fairness = %+v", f)
	}
}

// Property: CoV is scale-invariant, Max/Min >= 1, Jain in (0, 1].
func TestFairnessProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int64, len(raw))
		scaled := make([]int64, len(raw))
		for i, v := range raw {
			counts[i] = int64(v) + 1 // strictly positive
			scaled[i] = counts[i] * 7
		}
		a, b := ComputeFairness(counts), ComputeFairness(scaled)
		if math.Abs(a.CoV-b.CoV) > 1e-9 {
			return false
		}
		if a.MaxMin < 1 || a.Jain <= 0 || a.Jain > 1+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Jain index equals 1 iff all counts are equal (for positive
// counts).
func TestJainEqualityProperty(t *testing.T) {
	f := func(v uint16, n uint8) bool {
		m := int(n%16) + 1
		counts := make([]int64, m)
		for i := range counts {
			counts[i] = int64(v) + 1
		}
		return math.Abs(ComputeFairness(counts).Jain-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

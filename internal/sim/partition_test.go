package sim

import (
	"math/rand"
	"testing"
)

func spanCost(weight []int64, s span) int64 {
	var c int64
	for r := s.lo; r < s.hi; r++ {
		c += weight[r] + 1
	}
	return c
}

// balancedSpans must always return exactly `workers` contiguous ascending
// spans covering [0, n), whatever the weight distribution.
func TestBalancedSpansCoverAndOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rnd.Intn(400)
		workers := 1 + rnd.Intn(12)
		weight := make([]int64, n)
		for r := range weight {
			switch rnd.Intn(3) {
			case 0: // idle
			case 1:
				weight[r] = int64(rnd.Intn(10))
			case 2: // hot cluster member
				weight[r] = int64(100 + rnd.Intn(1000))
			}
		}
		spans := balancedSpans(weight, workers, nil)
		if len(spans) != workers {
			t.Fatalf("n=%d workers=%d: %d spans", n, workers, len(spans))
		}
		lo := 0
		for i, s := range spans {
			if s.lo != lo || s.hi < s.lo {
				t.Fatalf("n=%d workers=%d: span %d = %+v breaks contiguity at %d (spans %v)",
					n, workers, i, s, lo, spans)
			}
			lo = s.hi
		}
		if lo != n {
			t.Fatalf("n=%d workers=%d: spans end at %d (spans %v)", n, workers, lo, spans)
		}
	}
}

// A clustered hot spot (the ADVc bottleneck-group shape) must not leave
// one span carrying most of the load: every span's weight share stays
// within one max-element granule of the ideal.
func TestBalancedSpansSplitHotCluster(t *testing.T) {
	const n, workers = 342, 4 // the h=3 network's router count
	weight := make([]int64, n)
	// Group 0 (routers 0..17) steps every cycle; the rest are nearly idle.
	var maxElem int64
	for r := range weight {
		if r < 18 {
			weight[r] = 256
		} else {
			weight[r] = 2
		}
		if weight[r]+1 > maxElem {
			maxElem = weight[r] + 1
		}
	}
	spans := balancedSpans(weight, workers, nil)
	var total int64
	for _, s := range spans {
		total += spanCost(weight, s)
	}
	ideal := total / workers
	for i, s := range spans {
		if c := spanCost(weight, s); c > ideal+maxElem {
			t.Errorf("span %d %+v carries %d, ideal %d (+granule %d) — hot cluster not split (spans %v)",
				i, s, c, ideal, maxElem, spans)
		}
	}

	// The id-count split, by contrast, would put the whole hot group in
	// span 0: sanity-check that the balanced cut actually moved it.
	if spans[0].hi >= n/workers {
		t.Errorf("first span %+v is no tighter than the id split (%d)", spans[0], n/workers)
	}
}

// Zero activity degenerates to a near-equal id split.
func TestBalancedSpansIdleIsEven(t *testing.T) {
	weight := make([]int64, 100)
	spans := balancedSpans(weight, 4, nil)
	for i, s := range spans {
		if s.hi-s.lo != 25 {
			t.Fatalf("span %d = %+v, want width 25 (spans %v)", i, s, spans)
		}
	}
}

// More workers than routers: trailing spans are empty but the partition
// stays well-formed.
func TestBalancedSpansMoreWorkersThanRouters(t *testing.T) {
	weight := []int64{5, 0, 9}
	spans := balancedSpans(weight, 8, nil)
	if len(spans) != 8 {
		t.Fatalf("%d spans, want 8", len(spans))
	}
	covered := 0
	for _, s := range spans {
		covered += s.hi - s.lo
	}
	if covered != 3 {
		t.Fatalf("spans cover %d routers, want 3 (%v)", covered, spans)
	}
}

// The re-partitioning engine must remain bit-identical to the single-worker
// one under the pattern that skews the workers' loads the most — ADVc
// concentrates activity in the bottleneck group — across enough cycles for
// several re-partitions to fire. runSched bypasses the NumCPU clamp, so the
// three- and four-worker partitions run on any machine.
func TestRebalancedParallelBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mechanism = "In-Trns-MM"
	cfg.Pattern = "ADVc"
	cfg.Load = 0.3
	cfg.WarmupCycles = 2 * rebalanceInterval
	cfg.MeasureCycles = 3 * rebalanceInterval
	ref, _ := runSched(t, cfg, 1)
	for _, workers := range []int{2, 3, 4} {
		got, _ := runSched(t, cfg, workers)
		for r := range ref.PerRouter {
			if got.PerRouter[r] != ref.PerRouter[r] {
				t.Fatalf("workers=%d: router %d stats diverge after re-partitioning", workers, r)
			}
		}
	}
}

package stats

import (
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.count() != 0 {
		t.Error("empty count")
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		lat    int64
		bucket int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {1 << 23, histBuckets - 1}, {1 << 40, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.lat); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.lat, got, c.bucket)
		}
	}
}

func TestHistogramObserveAndCount(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.count() != 1000 {
		t.Errorf("Count() = %d", h.count())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100) // all in bucket [64,128)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		got := h.Quantile(q)
		if got != 128 {
			t.Errorf("Quantile(%v) = %d, want upper edge 128", q, got)
		}
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 10000; i++ {
		h.Observe(i)
	}
	p50 := h.Quantile(0.5)
	p99 := h.Quantile(0.99)
	if p50 > p99 {
		t.Errorf("p50 %d > p99 %d", p50, p99)
	}
	// The true p50 is 5000 -> bucket [4096,8192) -> upper edge 8192.
	if p50 != 8192 {
		t.Errorf("p50 = %d, want 8192", p50)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	b.Observe(10)
	b.Observe(1000)
	a.merge(&b)
	if a.count() != 3 {
		t.Errorf("merged count = %d", a.count())
	}
}

func TestHistogramClampedQuantileArgs(t *testing.T) {
	var h Histogram
	h.Observe(5)
	if h.Quantile(-1) == 0 || h.Quantile(2) == 0 {
		t.Error("out-of-range quantile args should clamp, not zero")
	}
}

// Property: the quantile upper bound is never below the true value for
// samples of a single latency.
func TestHistogramQuantileUpperBoundProperty(t *testing.T) {
	f := func(lat uint32, q uint8) bool {
		var h Histogram
		v := int64(lat%1000000) + 1
		for i := 0; i < 10; i++ {
			h.Observe(v)
		}
		quant := float64(q%101) / 100
		return h.Quantile(quant) >= v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

package stats

import "math"

// Batches is the number of equal spans the measurement window is split
// into for batch-means analysis. Eight batches keep the per-router
// accumulator small while giving seven degrees of freedom for the
// confidence interval.
const Batches = 8

// BatchIndex maps cycle now of a run that measures cycles [warmup, total)
// to its batch-means span. Only meaningful for a cycle of that interval
// (0 when the interval is empty).
func BatchIndex(now, warmup, total int64) int {
	measure := total - warmup
	if measure <= 0 {
		return 0
	}
	return int((now - warmup) * Batches / measure)
}

// tTable95 holds two-sided Student-t critical values at 95% confidence for
// 1..30 degrees of freedom; larger dof fall back to the normal value.
var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the critical value for the given degrees of freedom.
func tCritical95(dof int) float64 {
	if dof < 1 {
		return 0
	}
	if dof <= len(tTable95) {
		return tTable95[dof-1]
	}
	return 1.960
}

// BatchMeans summarises a batch-means series: the grand mean and the 95%
// confidence half-width. Standard steady-state simulation methodology
// (batch means with a fixed batch count).
type BatchMeans struct {
	Mean     float64
	HalfCI95 float64
}

// ComputeBatchMeans derives mean and confidence half-width from per-batch
// values.
func ComputeBatchMeans(batches []float64) BatchMeans {
	n := float64(len(batches))
	if n == 0 {
		return BatchMeans{}
	}
	var sum float64
	for _, v := range batches {
		sum += v
	}
	mean := sum / n
	if len(batches) < 2 {
		return BatchMeans{Mean: mean}
	}
	var ss float64
	for _, v := range batches {
		d := v - mean
		ss += float64(d * d) // rounded: never fused
	}
	stderr := math.Sqrt(ss/(n-1)) / math.Sqrt(n)
	return BatchMeans{Mean: mean, HalfCI95: tCritical95(len(batches)-1) * stderr}
}

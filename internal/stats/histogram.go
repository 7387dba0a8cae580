package stats

// histBuckets is the number of logarithmic latency buckets. Bucket i counts
// deliveries with latency in [2^i, 2^(i+1)) cycles (bucket 0 covers 0 and
// 1). With 24 buckets the histogram spans latencies up to ~16.7M cycles,
// far beyond any simulation length.
const histBuckets = 24

// Histogram is a fixed-size logarithmic latency histogram. Being a plain
// array it keeps the containing accumulator comparable and mergeable with
// integer arithmetic only.
type Histogram [histBuckets]int64

// bucketOf returns the bucket index for a latency value.
func bucketOf(lat int64) int {
	if lat < 1 {
		return 0
	}
	b := 0
	for lat > 1 && b < histBuckets-1 {
		lat >>= 1
		b++
	}
	return b
}

// Observe records one latency sample.
func (h *Histogram) Observe(lat int64) { h[bucketOf(lat)]++ }

// merge adds other's counts into h.
func (h *Histogram) merge(other *Histogram) {
	for i := range h {
		h[i] += other[i]
	}
}

// count returns the total number of samples.
func (h *Histogram) count() int64 {
	var n int64
	for _, c := range h {
		n += c
	}
	return n
}

// Quantile returns an upper-bound estimate of the q-quantile latency
// (0 < q <= 1): the upper edge of the bucket containing the quantile.
// It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range h {
		seen += c
		if seen > rank {
			if i == 0 {
				return 1
			}
			return 1 << uint(i+1) // upper edge of [2^i, 2^(i+1))
		}
	}
	return 1 << uint(histBuckets)
}

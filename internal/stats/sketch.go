package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Sketch is a fixed-memory streaming quantile sketch over non-negative
// float64 values — the bounded replacement for "sort every observation"
// quantiles in cluster-lifetime scheduler runs, where the number of
// completed jobs grows with the trace but the memory must not.
//
// It is an HDR-histogram-style log-linear histogram: values in [1, 2^48)
// are bucketed by their binary exponent and the top sketchSubBits mantissa
// bits, giving a guaranteed relative resolution of 2^-sketchSubBits
// (1/32 ≈ 3.1%) per bucket. Values in [0, 1) share the underflow bucket
// and values ≥ 2^48 the overflow bucket, so Observe never loses a sample.
// Bucketing reads the IEEE-754 bit pattern directly — no logarithms — so
// bucket assignment is exact and platform-independent.
//
// Determinism is structural, not procedural: appendBinary emits buckets
// in ascending index order with varint-encoded gaps, so equal sketches
// serialize to equal bytes.
//
// The quantile guarantee (enforced by FuzzSketch): for any q, Quantile(q)
// is the upper edge of the bucket containing the exact q-quantile of the
// observed multiset. Hence estimate ≥ exact, and for exact ∈ [1, 2^48)
// estimate ≤ exact · (1 + 2^-(sketchSubBits-1)) — zero rank error at bucket
// granularity, bounded relative value error.
type Sketch struct {
	n       int64
	max     float64
	buckets [sketchBuckets]int64
}

const (
	// sketchSubBits is the number of mantissa bits kept per octave: 32
	// linear sub-buckets per power of two.
	sketchSubBits = 5
	sketchSub     = 1 << sketchSubBits
	// sketchOctaves spans [2^0, 2^48): slowdowns, waits and runtimes in
	// cycles up to ~2.8e14 — beyond any cluster-year of simulated time.
	sketchOctaves = 48
	// Bucket 0 holds [0, 1); the last bucket holds [2^48, +Inf).
	sketchBuckets = 1 + sketchOctaves*sketchSub + 1
)

// sketchBucketOf maps a value to its bucket index. Negative and NaN values
// are clamped into the underflow bucket (callers feed cycle counts and
// slowdowns, which are never negative; clamping keeps Observe total).
func sketchBucketOf(v float64) int {
	if !(v >= 1) { // catches v < 1 and NaN
		return 0
	}
	if v >= 1<<sketchOctaves {
		return sketchBuckets - 1
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52) - 1023                                // 0..sketchOctaves-1
	sub := int(bits >> (52 - sketchSubBits) & (sketchSub - 1)) // top mantissa bits
	return 1 + exp*sketchSub + sub
}

// sketchUpperEdge returns the exclusive upper edge of a bucket — the value
// Quantile reports, mirroring Histogram's upper-edge convention.
func sketchUpperEdge(idx int) float64 {
	if idx <= 0 {
		return 1
	}
	if idx >= sketchBuckets-1 {
		return math.Inf(1)
	}
	// The upper edge of bucket k is the lower edge of bucket k+1:
	// (1 + (sub+1)/32) · 2^exp.
	k := idx // lower edge of bucket k+1 = upper edge of bucket k
	exp := (k - 1) / sketchSub
	sub := (k - 1) % sketchSub
	return (1 + float64(sub+1)/sketchSub) * math.Ldexp(1, exp)
}

// Observe records one value.
func (s *Sketch) Observe(v float64) {
	s.buckets[sketchBucketOf(v)]++
	s.n++
	if v > s.max {
		s.max = v
	}
}

// Quantile returns the upper edge of the bucket containing the q-quantile
// (0 < q ≤ 1) of the observed values, or 0 for an empty sketch. The exact
// q-quantile x satisfies x ≤ Quantile(q) ≤ x·(1+2^-4) for x ∈ [1, 2^48).
// The topmost non-empty bucket reports min(edge, max) so the estimate
// never exceeds the largest value actually seen.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 0-based index of the exact quantile in the sorted
	// multiset: ceil(q·n)-1, clamped — the same convention the scheduler's
	// former sort-based SlowdownQuantile used.
	rank := int64(math.Ceil(q*float64(s.n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= s.n {
		rank = s.n - 1
	}
	var seen int64
	for i, c := range s.buckets {
		seen += c
		if seen > rank {
			e := sketchUpperEdge(i)
			if e > s.max {
				e = s.max
			}
			return e
		}
	}
	return s.max // unreachable: seen == n > rank after the last bucket
}

// sketchMagic versions the serialized form.
const sketchMagic = "dsk1"

// appendBinary appends a deterministic serialization of s to b: equal
// sketches always produce equal bytes (non-empty buckets in ascending index
// order, gap/count varint pairs), so checkpointed sketch state can be
// compared with cmp and resumed runs stay byte-identical.
func (s *Sketch) appendBinary(b []byte) []byte {
	b = append(b, sketchMagic...)
	b = binary.AppendUvarint(b, uint64(s.n))
	b = binary.AppendUvarint(b, math.Float64bits(s.max))
	prev := 0
	nonzero := uint64(0)
	for _, c := range s.buckets {
		if c != 0 {
			nonzero++
		}
	}
	b = binary.AppendUvarint(b, nonzero)
	for i, c := range s.buckets {
		if c == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(i-prev))
		b = binary.AppendUvarint(b, uint64(c))
		prev = i
	}
	return b
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.appendBinary(nil), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler, inverting
// appendBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < len(sketchMagic) || string(data[:len(sketchMagic)]) != sketchMagic {
		return fmt.Errorf("stats: not a sketch (bad magic)")
	}
	data = data[len(sketchMagic):]
	read := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("stats: truncated sketch")
		}
		data = data[n:]
		return v, nil
	}
	var out Sketch
	n, err := read()
	if err != nil {
		return err
	}
	out.n = int64(n)
	maxBits, err := read()
	if err != nil {
		return err
	}
	out.max = math.Float64frombits(maxBits)
	nonzero, err := read()
	if err != nil {
		return err
	}
	idx := 0
	var total int64
	for k := uint64(0); k < nonzero; k++ {
		gap, err := read()
		if err != nil {
			return err
		}
		cnt, err := read()
		if err != nil {
			return err
		}
		idx += int(gap)
		if idx >= sketchBuckets || cnt == 0 {
			return fmt.Errorf("stats: corrupt sketch (bucket %d, count %d)", idx, cnt)
		}
		out.buckets[idx] = int64(cnt)
		total += int64(cnt)
	}
	if total != out.n {
		return fmt.Errorf("stats: corrupt sketch (bucket sum %d != count %d)", total, out.n)
	}
	*s = out
	return nil
}

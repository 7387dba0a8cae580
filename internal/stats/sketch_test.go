package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

func TestSketchEmpty(t *testing.T) {
	var s Sketch
	if s.n != 0 || s.Quantile(0.5) != 0 || s.max != 0 {
		t.Fatalf("empty sketch: count=%d q50=%v max=%v", s.n, s.Quantile(0.5), s.max)
	}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r Sketch
	if err := r.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if r.n != 0 {
		t.Fatalf("round-tripped empty sketch has count %d", r.n)
	}
}

func TestSketchBucketEdges(t *testing.T) {
	// Values below 1 (and non-finite garbage) land in the underflow bucket.
	for _, v := range []float64{0, 0.5, 0.999, -3, math.NaN()} {
		if got := sketchBucketOf(v); got != 0 {
			t.Errorf("bucketOf(%v) = %d, want 0", v, got)
		}
	}
	// Exactly 1 is the first regular bucket; huge values overflow.
	if got := sketchBucketOf(1); got != 1 {
		t.Errorf("bucketOf(1) = %d, want 1", got)
	}
	for _, v := range []float64{1 << sketchOctaves, math.Inf(1), 1e300} {
		if got := sketchBucketOf(v); got != sketchBuckets-1 {
			t.Errorf("bucketOf(%v) = %d, want %d", v, got, sketchBuckets-1)
		}
	}
	// Every power of two starts a fresh octave, 32 buckets apart.
	for e := 0; e < sketchOctaves; e++ {
		want := 1 + e*sketchSub
		if got := sketchBucketOf(math.Ldexp(1, e)); got != want {
			t.Errorf("bucketOf(2^%d) = %d, want %d", e, got, want)
		}
	}
	// Upper edges are monotone and each value sits strictly below its
	// bucket's upper edge.
	prev := 0.0
	for i := 0; i < sketchBuckets-1; i++ {
		e := sketchUpperEdge(i)
		if e <= prev {
			t.Fatalf("upper edge not increasing at bucket %d: %v <= %v", i, e, prev)
		}
		prev = e
	}
}

func TestSketchQuantileRelativeError(t *testing.T) {
	var s Sketch
	var vals []float64
	x := 1.0
	for i := 0; i < 10000; i++ {
		v := 1 + math.Mod(x*9301+49297, 233280)/233280*1e6
		x = v
		s.Observe(v)
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		exact := vals[rank]
		got := s.Quantile(q)
		if got < exact || got > exact*(1+1.0/sketchSub)+1e-9 {
			t.Errorf("q=%v: estimate %v outside [%v, %v]", q, got, exact, exact*(1+1.0/sketchSub))
		}
	}
}

func TestSketchUnmarshalErrors(t *testing.T) {
	var s Sketch
	for _, data := range [][]byte{
		nil,
		[]byte("xx"),
		[]byte("nope"),
		[]byte("dsk1"), // truncated after magic
	} {
		if err := s.UnmarshalBinary(data); err == nil {
			t.Errorf("UnmarshalBinary(%q) accepted corrupt input", data)
		}
	}
	// Bucket counts that do not sum to n must be rejected.
	b := []byte("dsk1")
	b = binary.AppendUvarint(b, 5)                     // n = 5
	b = binary.AppendUvarint(b, math.Float64bits(2.0)) // max
	b = binary.AppendUvarint(b, 1)                     // one bucket
	b = binary.AppendUvarint(b, 3)                     // index 3
	b = binary.AppendUvarint(b, 2)                     // count 2 != 5
	if err := s.UnmarshalBinary(b); err == nil {
		t.Error("UnmarshalBinary accepted mismatched bucket sum")
	}
}

// sketchFuzzValues decodes the fuzz input into a bounded list of float64
// observations spanning underflow, the log-linear range, and overflow.
func sketchFuzzValues(data []byte) []float64 {
	var vals []float64
	for len(data) >= 2 && len(vals) < 512 {
		u := uint64(data[0])<<8 | uint64(data[1])
		data = data[2:]
		// Spread the 16-bit seed across ~19 orders of magnitude so every
		// bucket class (underflow, regular, overflow) is reachable.
		v := math.Exp(float64(u)/65535*44 - 2) // e^-2 .. e^42
		vals = append(vals, v)
	}
	return vals
}

// FuzzSketch is the combined property target the CI fuzz smoke runs: one
// input exercises (a) the rank/relative-error contract vs exact sorted
// quantiles and (b) serialization round-trips.
func FuzzSketch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 255, 255, 128, 0})
	f.Add(bytes.Repeat([]byte{7, 200}, 64))
	f.Add([]byte{0, 0, 1, 0, 0, 1, 255, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := sketchFuzzValues(data)

		var whole Sketch
		for _, v := range vals {
			whole.Observe(v)
		}
		if whole.n != int64(len(vals)) {
			t.Fatalf("count %d != %d", whole.n, len(vals))
		}

		// (a) Quantile contract: estimate ≥ exact always; within the
		// bucket's relative width for values in the log-linear range.
		if len(vals) > 0 {
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
				rank := int(math.Ceil(q*float64(len(sorted)))) - 1
				if rank < 0 {
					rank = 0
				}
				exact := sorted[rank]
				got := whole.Quantile(q)
				if got < exact && exact >= 1 {
					t.Fatalf("q=%v: estimate %v below exact %v", q, got, exact)
				}
				if exact >= 1 && exact < 1<<sketchOctaves {
					if limit := exact * (1 + 1.0/sketchSub) * (1 + 1e-12); got > limit {
						t.Fatalf("q=%v: estimate %v above bound %v (exact %v)", q, got, limit, exact)
					}
				}
			}
		}

		// (b) Round-trip: unmarshal then re-marshal is byte-identical and
		// preserves count, max and quantiles.
		ref := whole.appendBinary(nil)
		var back Sketch
		if err := back.UnmarshalBinary(ref); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		if again := back.appendBinary(nil); !bytes.Equal(ref, again) {
			t.Fatalf("round-trip not byte-identical:\n  %x\n  %x", ref, again)
		}
		if back.n != whole.n || back.max != whole.max ||
			back.Quantile(0.5) != whole.Quantile(0.5) {
			t.Fatalf("round-trip changed sketch: %d/%v vs %d/%v",
				back.n, back.max, whole.n, whole.max)
		}
	})
}

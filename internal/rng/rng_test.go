package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatalf("streams from identical seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams from different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 100; i++ {
		if c1.next() == c2.next() {
			t.Fatalf("split children emit identical values at step %d", i)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(7).Split()
	b := New(7).Split()
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("Split is not deterministic")
		}
	}
}

// SplitTo is Split without the allocation: same child stream, same advance
// of the parent.
func TestSplitToMatchesSplit(t *testing.T) {
	a, b := New(7), New(7)
	var child Source
	for round := 0; round < 3; round++ {
		want := a.Split()
		b.SplitTo(&child)
		for i := 0; i < 100; i++ {
			if want.next() != child.next() {
				t.Fatalf("round %d: SplitTo's stream differs from Split's at step %d", round, i)
			}
		}
		if a.next() != b.next() {
			t.Fatalf("round %d: parents diverge after SplitTo", round)
		}
	}
	if n := testing.AllocsPerRun(100, func() { b.SplitTo(&child) }); n != 0 {
		t.Fatalf("SplitTo allocates %v objects", n)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	s := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPerm(t *testing.T) {
	s := New(13)
	for n := 1; n <= 20; n++ {
		p := make([]int, n)
		s.Perm(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(17)
	const n, trials = 5, 50000
	counts := make([]int, n)
	p := make([]int, n)
	for i := 0; i < trials; i++ {
		s.Perm(p)
		counts[p[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Perm first element %d seen %d times, want ~%.0f", v, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.next()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Intn(73)
	}
}

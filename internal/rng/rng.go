// Package rng provides a small, fast, deterministic pseudo-random number
// generator with cheap splitting, used throughout the simulator.
//
// Simulations must be exactly reproducible from a single seed, and the
// engine needs many independent streams (one per traffic source, one per
// arbiter) that stay independent regardless of the order in which the
// simulator consumes them. math/rand's global functions are unsuitable for
// that; instead we use SplitMix64 for seeding and a xoshiro256** core, the
// same construction used by the Go runtime and by most modern simulators.
package rng

import "math/bits"

// Source is a deterministic xoshiro256** PRNG. The zero value is invalid;
// create sources with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand seeds into well-distributed xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield streams that
// are statistically independent for simulation purposes.
func New(seed uint64) *Source {
	var s Source
	s.seed(seed)
	return &s
}

// seed sets s to the start of the stream New(seed) returns.
func (s *Source) seed(seed uint64) {
	sm := seed
	s.s0 = splitMix64(&sm)
	s.s1 = splitMix64(&sm)
	s.s2 = splitMix64(&sm)
	s.s3 = splitMix64(&sm)
	// xoshiro must not start at the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

// Split derives a new independent Source from s, advancing s. It is the
// supported way to hand sub-streams to per-node and per-router consumers.
func (s *Source) Split() *Source {
	var d Source
	s.SplitTo(&d)
	return &d
}

// SplitTo is Split into caller-owned storage: dst becomes the very stream
// Split would have returned, s advances the same way, nothing is allocated.
// dst must not be s.
func (s *Source) SplitTo(dst *Source) {
	dst.seed(s.next() ^ 0xd1b54a32d192ed03)
}

// next returns the next 64 uniformly distributed bits.
func (s *Source) next() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	bound := uint64(n)
	for {
		x := s.next()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Perm fills dst with a uniform random permutation of 0..len(dst)-1.
func (s *Source) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

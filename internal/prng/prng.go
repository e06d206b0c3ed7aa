// Package prng provides the deterministic pseudo-random number generator
// used by the synthetic workload generators. The simulator must be fully
// reproducible — identical seeds produce identical traces, stats, and
// figures — so math/rand global state and time-based seeding are banned.
package prng

// Source is a SplitMix64 generator. The zero value is usable but all
// callers should seed it explicitly for clarity.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// gamma is SplitMix64's state increment: each draw adds it once.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next value in the sequence.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances the sequence past n values in O(1), exactly as n
// calls of Uint64 (or Intn, which is one draw) would.
func (s *Source) Skip(n int) {
	s.state += uint64(n) * gamma
}

// Intn returns a value in [0, n), exactly one Uint64 draw. It panics
// if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

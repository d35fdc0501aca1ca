// Package rng provides a small, deterministic pseudo-random number generator
// for workload generation. Every experiment in the repository derives its
// randomness from an explicit seed so that results are reproducible across
// runs and machines; nothing in the repository uses math/rand global state.
//
// The generator is xoshiro256++ seeded through SplitMix64, the combination
// recommended by the xoshiro authors. Both are implemented from the public
// reference algorithms.
package rng

import "errors"

// Source is a deterministic xoshiro256++ generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand a single seed into the xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Distinct seeds give
// independent streams; the same seed always gives the same stream.
func New(seed uint64) *Source {
	src := &Source{}
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	// The all-zero state is invalid for xoshiro; SplitMix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (src *Source) Uint64() uint64 {
	s := &src.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Int64n returns a uniform integer in [0, n). It panics if n <= 0, matching
// the contract of math/rand.
func (src *Source) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n called with n <= 0")
	}
	// Rejection sampling to remove modulo bias.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := src.Uint64()
		if v < limit {
			return int64(v % max)
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (src *Source) Intn(n int) int { return int(src.Int64n(int64(n))) }

// ErrBadInterval reports an inverted uniform interval.
var ErrBadInterval = errors.New("rng: uniform interval has hi < lo")

// Uniform returns a uniform integer in the closed interval [lo, hi],
// matching the paper's U(lo, hi) notation. It returns an error if hi < lo.
func (src *Source) Uniform(lo, hi int64) (int64, error) {
	if hi < lo {
		return 0, ErrBadInterval
	}
	return lo + src.Int64n(hi-lo+1), nil
}

// MustUniform is Uniform for callers with statically valid intervals.
// It panics if hi < lo.
func (src *Source) MustUniform(lo, hi int64) int64 {
	v, err := src.Uniform(lo, hi)
	if err != nil {
		panic(err)
	}
	return v
}

// Float64 returns a uniform float64 in [0, 1).
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) * (1.0 / (1 << 53))
}

// Perm returns a uniformly random permutation of [0, n) using Fisher-Yates.
func (src *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place using Fisher-Yates.
func (src *Source) Shuffle(xs []int64) {
	for i := len(xs) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Package rng provides the simulator's per-run random sources: a
// math/rand Source64 that draws exactly the stream of rand.NewSource for
// every seed, but seeds several times faster.
//
// math/rand seeds its 607-word additive lagged-Fibonacci generator by
// walking the Park–Miller chain x ← 48271·x mod (2³¹−1) 1841 times, one
// dependent Schrage division per step. Every simulated run seeds several
// sources, so that serial divide chain was the largest cost of a short
// run that is not physics. Step k of the chain is x0·48271^k mod (2³¹−1),
// so Seed here multiplies the reduced seed by a table of those powers,
// built once, and folds each product with the Mersenne identity
// 2³¹ ≡ 1. The multiplies are independent, so they pipeline instead of
// waiting on each other, and the state words are the same integers
// math/rand computes (DESIGN.md §16.7).
package rng

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime

	// seedMul is the Park–Miller multiplier of math/rand's seedrand.
	seedMul = 48271
	// firstStep is the chain step of state word 0's first draw: math/rand
	// discards 20 steps and then draws at the 21st.
	firstStep = 21
	// zeroSeed replaces a seed that reduces to zero, as in math/rand.
	zeroSeed = 89482311
)

// powers[i][j] = 48271^(firstStep+3i+j) mod (2³¹−1): the chain steps
// that make up state word i. Built once with plain modular arithmetic;
// each entry fits in 31 bits.
var powers = func() (t [rngLen][3]uint32) {
	x := uint64(1)
	for k := 0; k < firstStep; k++ {
		x = x * seedMul % int32max
	}
	for i := range t {
		for j := range t[i] {
			t[i][j] = uint32(x)
			x = x * seedMul % int32max
		}
	}
	return t
}()

// mulmod returns x·p mod (2³¹−1) for x, p in [1, 2³¹−2]. The 62-bit
// product folds twice by 2³¹ ≡ 1: the first fold leaves less than 2³²,
// the second at most 2³¹−1. That one non-canonical value stands for 0,
// which x·p cannot be congruent to with a prime modulus, so no final
// subtract is needed.
func mulmod(x, p uint64) uint64 {
	r := x * p
	r = r&int32max + r>>31
	return r&int32max + r>>31
}

// Source is math/rand's additive lagged-Fibonacci generator: the same
// 607-word state, the same Int63/Uint64 steps and the same state after
// Seed, so it draws the stream of rand.NewSource(seed) bit for bit. Like
// rand.NewSource's source it is not safe for concurrent use.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns a rand.Rand over a Source seeded with seed: a drop-in for
// rand.New(rand.NewSource(seed)) that draws the same values. Rand.Seed
// re-seeds it in place the same way.
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// Seed initialises the generator to the state rand.NewSource(seed) has.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &powers[i]
		u := int64(mulmod(x, uint64(p[0]))) << 40
		u ^= int64(mulmod(x, uint64(p[1]))) << 20
		u ^= int64(mulmod(x, uint64(p[2])))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

package rng

import (
	"math"
	"math/rand"
	"testing"
)

// drawAll draws n values of every kind the simulator's consumers use,
// interleaved so a misplaced read position in any one shows in the rest.
func drawAll(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, 0, 5*n)
	for i := 0; i < n; i++ {
		out = append(out,
			uint64(r.Int63()),
			r.Uint64(),
			math.Float64bits(r.Float64()),
			math.Float64bits(r.NormFloat64()),
			uint64(r.Intn(1+i%1000)),
		)
	}
	return out
}

func sameStream(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d draws, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: draw %d (kind %d) = %#x, math/rand gives %#x", what, i/5, i%5, got[i], want[i])
		}
	}
}

// FuzzSourceMatchesMathRand checks that a Source draws math/rand's stream
// for any seed: fresh, and after re-seeding a used generator in place
// (the pooled-source path).
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{
		0, 1, -1,
		int32max, -int32max, 1 << 31, -(1 << 31), int32max - 1, 2 * int32max,
		math.MinInt64, math.MaxInt64,
		zeroSeed, -zeroSeed,
		1009, 42*1009 + 3, 0x9E3779B9,
	} {
		f.Add(seed, uint16(700))
	}
	f.Add(int64(7), uint16(0))
	f.Add(int64(-7), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		sameStream(t, "fresh", drawAll(got, int(n)), drawAll(want, int(n)))

		reseed := seed ^ int64(n)<<17
		got.Seed(reseed)
		want.Seed(reseed)
		sameStream(t, "re-seeded", drawAll(got, int(n)), drawAll(want, int(n)))
	})
}

// TestSeedMatchesMathRandSweep pins the full seeded state over a spread
// of seeds: the first 2·607 outputs read every state word, so equal
// outputs mean equal states.
func TestSeedMatchesMathRandSweep(t *testing.T) {
	src := NewSource(0)
	seeds := rand.New(rand.NewSource(2022))
	for i := 0; i < 500; i++ {
		seed := seeds.Int63() - seeds.Int63()
		if i < 64 {
			seed = int64(i) - 32
		}
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < 2*rngLen; k++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: output %d = %#x, math/rand gives %#x", seed, k, got, want)
			}
		}
	}
}

func TestMulmod(t *testing.T) {
	for _, c := range []struct{ x, p uint64 }{
		{1, 1}, {1, int32max - 1}, {int32max - 1, int32max - 1},
		{zeroSeed, seedMul}, {1 << 30, 1 << 30}, {12345, 67890},
	} {
		if got, want := mulmod(c.x, c.p), c.x*c.p%int32max; got != want {
			t.Errorf("mulmod(%d, %d) = %d, want %d", c.x, c.p, got, want)
		}
	}
}

// BenchmarkSeed times one re-seed against math/rand's, the cost every
// pooled per-run source pays.
func BenchmarkSeed(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		s := NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}

package dufp

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestPooledRNGRunsMatchUnpooled pins the per-worker RNG pooling: on a
// single executor worker, runs that alternate seeds and switch
// measurement noise and workload jitter on and off all re-seed the same
// pooled sources, and each must equal the run executed outside any
// worker, where every machine and source is built fresh.
func TestPooledRNGRunsMatchUnpooled(t *testing.T) {
	app, err := SteadyApp(SteadyConfig{OIClass: "memory", Duration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gov := DUFP(DefaultControlConfig(0.10))
	exe := NewExecutor(ExecWorkers(1))
	defer exe.Close()

	variants := []Session{
		NewSession(WithSeed(1)),
		NewSession(WithSeed(2), WithNoise(0)),
		NewSession(WithSeed(3), WithJitter(Jitter{})),
		NewSession(WithSeed(4), WithNoise(0.03), WithJitter(Jitter{Duration: 0.05, Intensity: 0.05})),
		NewSession(WithSeed(5), WithNoise(0), WithJitter(Jitter{})),
		NewSession(WithSeed(1)),
	}
	ctx := context.Background()
	for i, s := range variants {
		base := 0
		if i == len(variants)-1 {
			base = 2 // the first variant's runs 0 and 1 are memoised already
		}
		for idx := base; idx < base+2; idx++ {
			spec := RunSpec{App: app, Governor: gov, Idx: idx}
			got, err := s.OnExecutor(exe).Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := s.execute(ctx, app, gov.Func(), idx, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Run != want {
				t.Fatalf("variant %d run %d on pooled sources diverged from fresh:\n pooled: %+v\n fresh:  %+v", i, idx, got.Run, want)
			}
		}
	}
	if st := exe.Stats(); st.Started != int64(2*len(variants)) {
		t.Fatalf("executor simulated %d runs, want %d distinct", st.Started, 2*len(variants))
	}
}

// TestRNGPoolReseedMatchesFresh pins the contract the pool relies on:
// re-seeding a used source in place draws exactly the stream of a fresh
// rand.New(rand.NewSource(seed)), including the buffered Read position.
func TestRNGPoolReseedMatchesFresh(t *testing.T) {
	var p rngPool
	for _, seed := range []int64{1, 42, -7, 1 << 40} {
		for role := rngUnroll; role <= rngMonitor+2; role++ {
			pooled := p.seeded(role, seed)
			fresh := rand.New(rand.NewSource(seed))
			a, b := make([]byte, 13), make([]byte, 13)
			pooled.Read(a)
			fresh.Read(b)
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d role %d: Read %x, fresh %x", seed, role, a, b)
			}
			for k := 0; k < 64; k++ {
				if x, y := pooled.NormFloat64(), fresh.NormFloat64(); x != y {
					t.Fatalf("seed %d role %d draw %d: %v, fresh %v", seed, role, k, x, y)
				}
			}
			// Leave a partial Read buffered for the next re-seed to reset.
			pooled.Read(a[:3])
		}
	}
	if len(p.srcs) != rngMonitor+3 {
		t.Fatalf("pool holds %d sources, want %d", len(p.srcs), rngMonitor+3)
	}
	if r := (*rngPool)(nil).seeded(rngUnroll, 9); r.Int63() != rand.New(rand.NewSource(9)).Int63() {
		t.Fatal("nil pool source differs from a fresh one")
	}
}

package dufp

import (
	"context"
	"math/rand"

	"dufp/internal/exec"
	"dufp/internal/rng"
	"dufp/internal/sim"
)

// Keys of the facade's entries in a worker slot's scratch arena (see
// exec.Scratch): the pooled simulator and the pooled per-run random
// sources for that slot.
const (
	scratchMachineKey = "sim.machine"
	scratchRNGKey     = "dufp.rngs"
)

// machineFor returns a machine configured as cfg. When ctx belongs to a
// run executing on an executor worker, the worker slot's pooled machine
// is reclaimed in place — MSR space, sockets, limiters, RNG streams all
// reset to factory state, bit-identical to a fresh build (see
// sim.Machine.Reset and its identity test) — which removes the dominant
// per-run allocation from campaign hot paths. A pooled machine whose
// construction-time config is incompatible with cfg, or a run outside
// the executor, falls back to sim.New; the fresh machine is parked in
// the arena for the slot's next run.
//
// The machine never escapes the run that reclaimed it: results are
// values and run artifacts own their state, so handing the same machine
// to the slot's next run is safe under the scratch single-owner rule.
func machineFor(ctx context.Context, cfg sim.Config) (*sim.Machine, error) {
	sc := exec.ScratchFromContext(ctx)
	if m, ok := sc.Get(scratchMachineKey).(*sim.Machine); ok && m.Reset(cfg) {
		return m, nil
	}
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	sc.Put(scratchMachineKey, m) // nil-safe no-op outside a worker
	return m, nil
}

// Roles of a run's random sources in an rngPool.
const (
	rngUnroll  = 0 // the App.Unroll jitter stream
	rngMonitor = 1 // socket i's PAPI monitor noise stream is rngMonitor+i
)

// rngPool holds a worker slot's per-run random sources, indexed by role,
// beside the slot's pooled machine. A source is re-seeded in place with
// (*rand.Rand).Seed, which resets both the generator state and the
// Rand's read position exactly as rng.New(seed) builds them, so a
// pooled source draws the same stream as a fresh one while saving its
// ≈5 KiB allocation per run. Every source is an rng.Source, which draws
// math/rand's stream but seeds without math/rand's serial division
// chain. Like the machine, the sources are used only by the run that
// re-seeded them.
type rngPool struct {
	srcs []*rand.Rand
}

// rngsFor returns the worker slot's pooled sources when ctx belongs to a
// run executing on an executor worker, and nil otherwise; a nil pool
// hands out fresh sources.
func rngsFor(ctx context.Context) *rngPool {
	sc := exec.ScratchFromContext(ctx)
	if sc == nil {
		return nil
	}
	p, ok := sc.Get(scratchRNGKey).(*rngPool)
	if !ok {
		p = new(rngPool)
		sc.Put(scratchRNGKey, p)
	}
	return p
}

// seeded returns the source of the given role, seeded with seed.
func (p *rngPool) seeded(role int, seed int64) *rand.Rand {
	if p == nil {
		return rng.New(seed)
	}
	for len(p.srcs) <= role {
		p.srcs = append(p.srcs, nil)
	}
	if r := p.srcs[role]; r != nil {
		r.Seed(seed)
		return r
	}
	r := rng.New(seed)
	p.srcs[role] = r
	return r
}

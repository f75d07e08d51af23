// Package fault is a deterministic, seedable fault-injection layer over
// the harness's sensor and actuator seams. It wraps the MSR device
// (energy counters, uncore perf status, RAPL limit writes) and the PAPI
// counter source with composable fault models drawn from the literature
// on real power-capped nodes: multiplicative Gaussian counter noise,
// stuck/stale reads, dropped samples, transient EIO-style read failures,
// and cap-write latency with a first-order enforcement lag.
//
// Determinism contract: one Injector serves one run, draws every random
// decision from a single private stream seeded from the run seed, and is
// only ever touched from that run's simulation goroutine. Two runs with
// the same seed and the same Plan therefore inject the same fault
// sequence and produce bit-identical results, and concurrent runs under
// the parallel executor never share injector state.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dufp/internal/obs"
	"dufp/internal/rng"
)

// Plan selects which faults to inject and how hard. The zero value
// injects nothing and leaves the sensor path byte-for-byte untouched.
// Plans are flat comparable values: a Session embeds one, so the fault
// plan is part of run identity in the executor's content-addressed keys.
type Plan struct {
	// Seed offsets the fault stream from the run seed, so two plans with
	// identical rates can draw different fault sequences.
	Seed int64

	// CounterNoiseSD applies multiplicative Gaussian noise of this
	// relative standard deviation to every PAPI counter delta. Noisy
	// counters stay monotonic: negative perturbed deltas clamp to zero.
	CounterNoiseSD float64

	// StuckP is the per-sampling-round probability that the counter
	// source freezes: reads return the last served values for StuckFor
	// rounds while the hardware keeps counting, so the unstick read sees
	// the accumulated burst (a stale-read spike).
	StuckP float64
	// StuckFor is the length of a stuck episode in sampling rounds;
	// values below 1 mean 1.
	StuckFor int

	// DropSampleP is the per-round probability that the whole monitor
	// sample is lost with a transient error. The drop is decided once
	// per round: same-round retries cannot recover it.
	DropSampleP float64

	// ReadFailP is the per-read probability that an MSR sensor read
	// (energy counters, uncore perf status, APERF/MPERF) fails with a
	// transient EIO. Unlike dropped samples, immediate retries re-roll
	// and can succeed.
	ReadFailP float64

	// OutageStart and OutageDuration schedule a window during which
	// every sensor read fails — a persistently unavailable sensor,
	// driving the controllers into degraded mode.
	OutageStart    time.Duration
	OutageDuration time.Duration

	// CapWriteLatency delays the hardware effect of a power-limit write:
	// the register reads back the programmed target immediately, but the
	// enforced limit does not start moving until the latency elapses.
	CapWriteLatency time.Duration
	// CapEnforceTau is the first-order time constant with which the
	// enforced limit then approaches the target; zero means a step.
	CapEnforceTau time.Duration
}

// Enabled reports whether the plan injects anything. Seed alone does
// not: a plan with rates all zero is the clean path regardless of seed.
func (p Plan) Enabled() bool {
	return p.CounterNoiseSD > 0 || p.StuckP > 0 || p.DropSampleP > 0 ||
		p.ReadFailP > 0 || p.OutageDuration > 0 ||
		p.CapWriteLatency > 0 || p.CapEnforceTau > 0
}

// Validate checks the plan's parameters.
func (p Plan) Validate() error {
	for _, q := range []struct {
		name string
		v    float64
	}{
		{"StuckP", p.StuckP},
		{"DropSampleP", p.DropSampleP},
		{"ReadFailP", p.ReadFailP},
	} {
		if q.v < 0 || q.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1]", q.name, q.v)
		}
	}
	if p.CounterNoiseSD < 0 {
		return fmt.Errorf("fault: CounterNoiseSD %v negative", p.CounterNoiseSD)
	}
	if p.OutageStart < 0 || p.OutageDuration < 0 ||
		p.CapWriteLatency < 0 || p.CapEnforceTau < 0 {
		return errors.New("fault: negative duration")
	}
	return nil
}

// Stats counts the faults one injector actually delivered during a run.
type Stats struct {
	// ReadFailures counts injected transient MSR read errors, outage
	// reads included.
	ReadFailures int
	// StuckReads counts counter reads served a frozen value.
	StuckReads int
	// DroppedSamples counts whole monitor rounds lost.
	DroppedSamples int
	// NoisyReads counts counter deltas perturbed by Gaussian noise.
	NoisyReads int
	// DelayedCapWrites counts power-limit writes deferred by the
	// enforcement-lag model.
	DelayedCapWrites int
}

// Total sums all injected-fault counters.
func (s Stats) Total() int {
	return s.ReadFailures + s.StuckReads + s.DroppedSamples + s.NoisyReads + s.DelayedCapWrites
}

// Add returns the element-wise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	s.ReadFailures += o.ReadFailures
	s.StuckReads += o.StuckReads
	s.DroppedSamples += o.DroppedSamples
	s.NoisyReads += o.NoisyReads
	s.DelayedCapWrites += o.DelayedCapWrites
	return s
}

// ErrTransient marks an injected, retryable sensor failure — the
// simulated analogue of an EIO from a busy MSR driver. Callers separate
// retryable from fatal errors with errors.Is(err, fault.ErrTransient)
// or by asserting the Transient() method.
var ErrTransient = errors.New("fault: transient sensor failure (EIO)")

// TransientError is the concrete injected read failure.
type TransientError struct {
	// Op names the failed access, e.g. "rdmsr 0x611".
	Op string
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: injected EIO on %s", e.Op)
}

// Transient reports that the failure is retryable.
func (e *TransientError) Transient() bool { return true }

// Is matches ErrTransient, so errors.Is sees through the wrap.
func (e *TransientError) Is(target error) bool { return target == ErrTransient }

// Injected-fault telemetry, labelled by fault kind.
var injectedVec = obs.Default().Counter("fault_injected_total",
	"Faults injected into sensor/actuator seams, by kind.", "kind")

var (
	cReadFail = injectedVec.With("read-fail")
	cStuck    = injectedVec.With("stuck-read")
	cDrop     = injectedVec.With("dropped-sample")
	cNoise    = injectedVec.With("counter-noise")
	cCapDelay = injectedVec.With("cap-write-delay")
)

// Injector owns one run's fault state: the plan, the private random
// stream and the delivered-fault counters. Build the device and source
// wrappers from it; they share the stream, so the injection sequence is
// a deterministic function of (plan, seed, access order).
type Injector struct {
	plan  Plan
	rng   *rand.Rand
	now   func() time.Duration
	stats Stats
}

// NewInjector builds the injector of one run. seed is the run seed; now
// reports simulated time (the fault clock for outage windows and
// enforcement lag).
func NewInjector(plan Plan, seed int64, now func() time.Duration) *Injector {
	// Decorrelate the fault stream from the workload and monitor
	// streams, which derive from the same run seed.
	mixed := seed*0x9E3779B9 + plan.Seed*0x85EBCA6B + 0x27D4EB2F
	return &Injector{plan: plan, rng: rng.New(mixed), now: now}
}

// Plan returns the injector's fault plan.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns the faults delivered so far.
func (in *Injector) Stats() Stats { return in.stats }

// inOutage reports whether simulated time is inside the scheduled
// sensor outage window.
func (in *Injector) inOutage() bool {
	if in.plan.OutageDuration <= 0 {
		return false
	}
	t := in.now()
	return t >= in.plan.OutageStart && t < in.plan.OutageStart+in.plan.OutageDuration
}

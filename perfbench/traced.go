package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dufp"
)

// The in-process passes: the workload's run specs re-executed through
// Session.Run from as many goroutines as the executor has workers, once
// untraced and once with span recording on. The traced pass's per-stage
// self times, round counts and key-build timings are the module costs
// of a run; they must add back up to its wall time x workers within
// reconcileTolerance. What they leave uncovered — each call's time
// outside its span tree other than the key build, and the pool's idle
// time — is unattributed.

// call is the timing of one Session.Run call.
type call struct {
	wall time.Duration
	// sinceOpen is, for a traced call, the time from when its trace
	// opened to the call's return, read at the same moment as wall.
	sinceOpen time.Duration
}

// runPool executes every spec through session.Run from workers
// goroutines and returns the results and the timing of each call in
// spec order, and the wall time.
func runPool(ctx context.Context, session dufp.Session, specs []dufp.RunSpec, workers int, opts ...dufp.RunOption) ([]dufp.RunResult, []call, time.Duration, error) {
	out := make([]dufp.RunResult, len(specs))
	calls := make([]call, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				t := time.Now()
				out[i], errs[i] = session.Run(ctx, specs[i], opts...)
				calls[i].wall = time.Since(t)
				calls[i].sinceOpen = out[i].SpanTrace.Now()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, nil, 0, fmt.Errorf("run %d (%s): %w", i, specs[i].App.Name, err)
		}
	}
	return out, calls, wall, nil
}

// passChunks is how many slices, at most, the specs are cut into for the
// two passes. The slices alternate between the passes, so host speed
// swings of a second or so fall on both and cancel out of the overhead
// figure.
const passChunks = 20

// attributeInProcess runs the specs untraced and traced, each pass on a
// fresh executor with a disk cache like the daemon's and the fleet's,
// alternating slice by slice. The untraced pass gives the runtime/metrics
// deltas and the wall the tracing overhead is taken against; the traced
// pass gives the module costs. Both must reproduce want, when given, and
// each other, run for run.
func attributeInProcess(ctx context.Context, cfg *config, res *result, session dufp.Session, specs []dufp.RunSpec, want []dufp.Run) error {
	m := res.metrics
	workers := runtime.GOMAXPROCS(0)
	exeU := dufp.NewExecutor(dufp.ExecDiskCache(filepath.Join(cfg.work, "untraced-cache")))
	defer exeU.Close()
	exeT := dufp.NewExecutor(dufp.ExecDiskCache(filepath.Join(cfg.work, "traced-cache")))
	defer exeT.Close()
	untracedS, tracedS := session.OnExecutor(exeU), session.OnExecutor(exeT)

	untraced := make([]dufp.RunResult, 0, len(specs))
	traced := make([]dufp.RunResult, 0, len(specs))
	var calls []call
	var wallU, wallT time.Duration
	var allocBytes uint64
	var cpuGC, cpuTotal float64
	// A slice ends with workers idling while the last runs finish; 50
	// runs per worker keep that idle time near 1% of the pass.
	size := max(len(specs)/passChunks, 50*workers)
	runtime.GC()
	for i, lo := 0, 0; lo < len(specs); i, lo = i+1, lo+size {
		chunk := specs[lo:min(lo+size, len(specs))]
		for k := 0; k < 2; k++ {
			if (k == 0) == (i%2 == 0) {
				before := readRuntime()
				r, _, w, err := runPool(ctx, untracedS, chunk, workers)
				after := readRuntime()
				if err != nil {
					return err
				}
				allocBytes += after.allocBytes - before.allocBytes
				cpuGC += after.cpuGC - before.cpuGC
				cpuTotal += after.cpuTotal - before.cpuTotal
				wallU += w
				untraced = append(untraced, r...)
			} else {
				r, c, w, err := runPool(ctx, tracedS, chunk, workers, dufp.WithSpans())
				if err != nil {
					return err
				}
				wallT += w
				traced = append(traced, r...)
				calls = append(calls, c...)
			}
		}
	}
	m["dufp.alloc_kb_per_run"] = float64(allocBytes) / 1024 / float64(len(specs))
	m["dufp.gc_cpu_frac"] = cpuGC / cpuTotal
	for i := range specs {
		if traced[i].Run != untraced[i].Run || (want != nil && untraced[i].Run != want[i]) {
			res.failed++
		}
	}
	costs, err := spanCosts(traced, calls, wallT, workers)
	if err != nil {
		return err
	}
	costs.keyNS = keyBuildNS(session, specs)
	costs.put(m)
	m["traced.overhead_frac"] = wallT.Seconds()/wallU.Seconds() - 1
	for _, l := range costs.stageLines() {
		res.note("%s", l)
	}
	res.note("untraced pass: %d runs, wall %.3fs", len(specs), wallU.Seconds())
	res.reconcile(costs.unattributedFrac())
	return nil
}

// layerCosts is what the traced pass attributes.
type layerCosts struct {
	runs          int
	stageNS       map[string]int64
	rounds        int
	skippedRounds int
	roundNS       int64
	simSeconds    float64
	facadeNS      int64 // Session.Run call time outside the run's span tree
	preNS         int64 // the part of facadeNS before the trace opened
	keyNS         int64 // key builds, timed apart; the measured part of facadeNS
	tracedWall    time.Duration
	workers       int
}

// keyBuildNS times Session.RunID over every spec.
func keyBuildNS(session dufp.Session, specs []dufp.RunSpec) int64 {
	var total time.Duration
	for _, s := range specs {
		t := time.Now()
		_ = session.RunID(s)
		total += time.Since(t)
	}
	return int64(total)
}

// spanCosts sums the span summaries of a traced pass and the facade
// time around them: each call's duration minus its span tree's total.
func spanCosts(traced []dufp.RunResult, calls []call, wall time.Duration, workers int) (layerCosts, error) {
	c := layerCosts{runs: len(traced), stageNS: map[string]int64{}, tracedWall: wall, workers: workers}
	for i, r := range traced {
		if r.Spans == nil {
			return c, fmt.Errorf("traced run %d carries no span summary", i)
		}
		for _, st := range r.Spans.Stages {
			c.stageNS[st.Stage] += st.NS
		}
		c.rounds += r.Spans.Rounds
		c.skippedRounds += r.Spans.SkippedRounds
		c.roundNS += r.Spans.RoundNS
		c.simSeconds += r.Run.Time.Seconds()
		c.facadeNS += int64(calls[i].wall) - r.Spans.TotalNS
		c.preNS += int64(calls[i].wall - calls[i].sinceOpen)
	}
	return c, nil
}

// attributedNS sums the measured module self times: the key build and
// every span stage (the stages of one trace add up to its root exactly).
// The rest of the facade's time is not a measured module, so it is not
// attributed.
func (c layerCosts) attributedNS() int64 {
	n := c.keyNS
	for _, v := range c.stageNS {
		n += v
	}
	return n
}

// capacity is the traced pass's worker time: wall x workers.
func (c layerCosts) capacity() float64 { return float64(c.tracedWall) * float64(c.workers) }

// unattributedFrac is the share of the traced pass's worker time that
// no measured module self time covers.
func (c layerCosts) unattributedFrac() float64 {
	return 1 - float64(c.attributedNS())/c.capacity()
}

// put records the traced pass's per-module metrics.
func (c layerCosts) put(m map[string]float64) {
	n := float64(c.runs)
	m["dufp.key_us_per_run"] = float64(c.keyNS) / 1e3 / n
	m["dufp.setup_us_per_run"] = float64(c.stageNS["setup"]) / 1e3 / n
	m["sim.physics_us_per_simsec"] = float64(c.stageNS["sim"]-c.roundNS) / 1e3 / c.simSeconds
	m["sim.rounds"] = float64(c.rounds)
	m["sim.skipped_rounds"] = float64(c.skippedRounds)
	m["control.us_per_round"] = float64(c.roundNS) / 1e3 / float64(max(c.rounds, 1))
	m["traced.unattributed_frac"] = c.unattributedFrac()
}

// stageLines renders the traced pass's split for the report.
func (c layerCosts) stageLines() []string {
	capacity := c.capacity()
	lines := []string{fmt.Sprintf("traced pass: %d runs, wall %.3fs x %d workers", c.runs, c.tracedWall.Seconds(), c.workers)}
	add := func(name string, ns int64) {
		lines = append(lines, fmt.Sprintf("  %-10s %10.1f ms  %5.1f%%", name, float64(ns)/1e6, 100*float64(ns)/capacity))
	}
	add("key build", c.keyNS)
	for _, st := range []string{"run", "cache", "coalesce", "wait", "setup"} {
		if v, ok := c.stageNS[st]; ok {
			add(st, v)
		}
	}
	add("physics", c.stageNS["sim"]-c.roundNS)
	add("control", c.roundNS)
	for st, v := range c.stageNS {
		switch st {
		case "run", "cache", "coalesce", "wait", "setup", "sim":
		default:
			add(st, v)
		}
	}
	idle := capacity - float64(c.facadeNS)
	for _, v := range c.stageNS {
		idle -= float64(v)
	}
	lines = append(lines, fmt.Sprintf("  unattributed %.2f%% (tolerance ±%.0f%%): call time outside the span tree beyond the key build %.2f%%, pool idle %.2f%%",
		100*c.unattributedFrac(), 100*reconcileTolerance, 100*float64(c.facadeNS-c.keyNS)/capacity, 100*idle/capacity))
	lines = append(lines, fmt.Sprintf("    call time before the trace opened %.2f%% (the facade's key builds, under load), after it closed %.2f%%",
		100*float64(c.preNS)/capacity, 100*float64(c.facadeNS-c.preNS)/capacity))
	return lines
}

// wireCosts times the canonical wire JSON of values: marshal, then
// strict unmarshal into a fresh value, which must re-encode to the same
// bytes. It returns microseconds per value and the round-trip failures.
func wireCosts[T any](vals []T) (encUS, decUS float64, bad int) {
	var enc, dec time.Duration
	for _, v := range vals {
		t := time.Now()
		b, err := json.Marshal(v)
		enc += time.Since(t)
		if err != nil {
			bad++
			continue
		}
		var back T
		t = time.Now()
		err = decodeStrict(b, &back)
		dec += time.Since(t)
		if err != nil {
			bad++
			continue
		}
		if b2, err := json.Marshal(back); err != nil || string(b2) != string(b) {
			bad++
		}
	}
	n := float64(max(len(vals), 1))
	return us(enc) / n, us(dec) / n, bad
}

// diskGetUS opens a fresh executor over a disk-cache directory and
// times DiskGetByID for every id; it returns the p50 in microseconds and
// how many ids were missing.
func diskGetUS(dir string, ids []string, errs *[]error) (float64, int) {
	exe := dufp.NewExecutor(dufp.ExecDiskCache(dir))
	defer exe.Close()
	s := sample{name: "diskcache.get_us"}
	missing := 0
	for _, id := range ids {
		t := time.Now()
		_, ok := exe.DiskGetByID(id)
		s.add(us(time.Since(t)))
		if !ok {
			missing++
		}
	}
	return s.pct(0.5, errs), missing
}

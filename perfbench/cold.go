package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dufp"
	"dufp/internal/experiment"
)

// coldWorkload is one of the two in-process workloads: a campaign
// submitted as one batch to a fresh default executor with empty caches.
type coldWorkload struct {
	name  string
	disk  bool // attach an (empty) disk cache, as fleet campaigns do
	specs func(seed int64) ([]dufp.RunSpec, error)
	// batch submits the whole campaign through the public entry point
	// and returns report lines (paper-cold: the Claims verdicts) and
	// how many runs came back failed.
	batch func(ctx context.Context, seed int64, session dufp.Session, specs []dufp.RunSpec) ([]string, int, error)
	// exactSample is how many runs the reference loop re-executes.
	exactSample int
}

func coldWorkloads() []coldWorkload {
	return []coldWorkload{
		{
			name:        "paper-cold",
			specs:       func(int64) ([]dufp.RunSpec, error) { return paperSpecs(), nil },
			batch:       paperBatch,
			exactSample: 6,
		},
		{
			name:        "fleet-cold",
			disk:        true,
			specs:       func(seed int64) ([]dufp.RunSpec, error) { return fleetSpecs(seed, fleetSize) },
			batch:       fleetBatch,
			exactSample: 40,
		},
	}
}

func coldWorkloadNamed(name string) (coldWorkload, bool) {
	for _, w := range coldWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return coldWorkload{}, false
}

// paperBatch runs the paper's protocol grid with experiment.RunGrid on
// the session's executor and evaluates the paper's claims on it.
func paperBatch(ctx context.Context, seed int64, session dufp.Session, _ []dufp.RunSpec) ([]string, int, error) {
	opts := experiment.DefaultOptions()
	opts.Session = session
	opts.Context = ctx
	g, err := experiment.RunGrid(opts)
	if err != nil {
		return nil, 0, fmt.Errorf("RunGrid: %w", err)
	}
	t, err := experiment.Claims(g)
	if err != nil {
		return nil, 0, fmt.Errorf("Claims: %w", err)
	}
	var lines []string
	for _, row := range t.Rows {
		lines = append(lines, fmt.Sprintf("claim %-34s %-9s %s", row[0], row[len(row)-1], row[2]))
	}
	return lines, 0, nil
}

// fleetBatch submits the fleet as one SummarizeAll batch of one-run
// cells.
func fleetBatch(ctx context.Context, _ int64, session dufp.Session, specs []dufp.RunSpec) ([]string, int, error) {
	failed := 0
	for _, o := range session.SummarizeAll(ctx, summaryRequests(specs), 1) {
		if o.Err != nil {
			failed++
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, failed, err
	}
	return nil, failed, nil
}

// newColdExecutor builds the workload's executor: shipped defaults,
// plus an empty disk cache under dir when the workload has one, and the
// progress observer the benchmark times runs with.
func newColdExecutor(w coldWorkload, dir string, obs func(dufp.ExecutorEvent)) (*dufp.Executor, error) {
	var opts []dufp.ExecutorOption
	if w.disk || dir != "" {
		if dir == "" {
			return nil, fmt.Errorf("%s needs a disk-cache directory", w.name)
		}
		opts = append(opts, dufp.ExecDiskCache(dir))
	}
	if obs != nil {
		opts = append(opts, dufp.ExecObserver(obs))
	}
	exe := dufp.NewExecutor(opts...)
	if warn := exe.DiskWarning(); warn != "" {
		exe.Close()
		return nil, fmt.Errorf("disk cache: %s", warn)
	}
	return exe, nil
}

// setupOnly is the body of a set-up probe: a fresh process builds what
// the workload needs before its first submit — its specs, a default
// executor and the session on it — and prints how long that took, in
// seconds. Process and runtime start are not part of the figure.
func setupOnly(w coldWorkload, seed int64, work string) error {
	dir := ""
	if w.disk {
		dir = filepath.Join(work, fmt.Sprintf("setup-%d", os.Getpid()))
		defer os.RemoveAll(dir)
	}
	start := time.Now()
	if _, err := w.specs(seed); err != nil {
		return err
	}
	exe, err := newColdExecutor(w, dir, nil)
	if err != nil {
		return err
	}
	_ = seededSession(seed).OnExecutor(exe)
	elapsed := time.Since(start)
	fmt.Printf("ready %.9f\n", elapsed.Seconds())
	return exe.Close()
}

// runRecorder times every run of a batch from the executor's progress
// events: execution wall (op latency) and completion time since the
// batch was submitted (turnaround).
type runRecorder struct {
	mu       sync.Mutex
	start    time.Time
	walls    []float64
	turn     []float64
	failures int
}

func (r *runRecorder) observe(ev dufp.ExecutorEvent) {
	switch ev.Kind {
	case dufp.ExecCompleted:
		r.mu.Lock()
		r.walls = append(r.walls, ms(ev.Wall))
		r.turn = append(r.turn, ms(time.Since(r.start)))
		r.mu.Unlock()
	case dufp.ExecFailed:
		r.mu.Lock()
		r.failures++
		r.mu.Unlock()
	}
}

// coldBatch is one measured batch and what the checks found.
type coldBatch struct {
	wall time.Duration
	// given is the share of the batch wall the hypervisor let the
	// machine's CPUs run: 1 - host steal / (wall x CPUs).
	given float64
	rec   *runRecorder
	runs  []dufp.Run
	stats dufp.ExecutorStats
	lines []string
	bad   int // failed or wrong runs
}

// runColdBatch sets up a fresh executor (with an empty disk cache under
// dir when dir is set), times one batch, then, outside the timed window,
// fetches every run and checks it against want, the recorded digest of
// this seed, when one exists.
func runColdBatch(ctx context.Context, cfg *config, w coldWorkload, specs []dufp.RunSpec, dir string, want string) (*coldBatch, error) {
	b := &coldBatch{rec: &runRecorder{}}
	exe, err := newColdExecutor(w, dir, b.rec.observe)
	if err != nil {
		return nil, err
	}
	defer exe.Close()
	session := seededSession(cfg.seed).OnExecutor(exe)
	runtime.GC()

	steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	b.rec.mu.Lock()
	b.rec.start = time.Now()
	b.rec.mu.Unlock()
	lines, failed, err := w.batch(ctx, cfg.seed, session, specs)
	b.wall = time.Since(b.rec.start)
	if err != nil {
		return nil, err
	}
	steal1, err := hostSteal()
	if err != nil {
		return nil, err
	}
	b.given = 1 - float64(steal1-steal0)/(float64(b.wall)*float64(runtime.NumCPU()))
	b.lines = lines
	b.stats = exe.Stats()
	b.bad = max(failed, b.rec.failures)
	if b.stats.Started != int64(len(specs)) {
		return nil, fmt.Errorf("batch started %d runs, want %d distinct", b.stats.Started, len(specs))
	}
	if b.runs, err = collectRuns(ctx, session, specs); err != nil {
		return nil, err
	}
	if want != "" {
		d, err := runDigest(b.runs)
		if err != nil {
			return nil, err
		}
		if d != want {
			// The digest cannot say which runs differ; every run of the
			// batch counts as a wrong output.
			b.bad = len(specs)
			b.lines = append(b.lines, fmt.Sprintf("digest %s differs from the recorded %s", d, want))
		}
	}
	return b, nil
}

// runCold is the untraced measurement of a cold workload.
func runCold(ctx context.Context, cfg *config, w coldWorkload) (*result, error) {
	res := newResult()
	specs, err := w.specs(cfg.seed)
	if err != nil {
		return nil, err
	}
	setups, err := probeSetups(ctx, cfg, w.name)
	if err != nil {
		return nil, err
	}
	want, recorded := recordedDigest(w.name, cfg.seed)
	if !recorded {
		res.note("no digest recorded for seed %d: runs are checked against the first batch and the reference loop only", cfg.seed)
	}

	var walls, turn sample
	walls.name, turn.name = "op", "turnaround"
	// The window is whole batches; it stops before a batch that would
	// be expected to end more than half a batch past --seconds, so its
	// length stays within half a batch of it. Throughput and turnaround
	// count only the time the hypervisor let the CPUs run (see
	// coldBatch.given): on a shared host, steal comes and goes in phases
	// of minutes, and the wall rate moved with it from run to run.
	var total, givenTotal time.Duration
	var first []dufp.Run
	var lines []string
	completed := 0
	for rep := 0; rep == 0 || total+total/time.Duration(2*rep) < cfg.seconds; rep++ {
		dir := ""
		if w.disk {
			dir = filepath.Join(cfg.work, fmt.Sprintf("cache-%d", rep))
		}
		b, err := runColdBatch(ctx, cfg, w, specs, dir, want)
		if dir != "" {
			os.RemoveAll(dir)
		}
		if err != nil {
			return nil, err
		}
		total += b.wall
		givenTotal += time.Duration(float64(b.wall) * b.given)
		completed += len(b.rec.walls)
		walls.xs = append(walls.xs, b.rec.walls...)
		for _, t := range b.rec.turn {
			turn.add(t * b.given)
		}
		res.attempted += len(specs)
		res.failed += b.bad
		if first == nil {
			first = b.runs
		} else if b.bad == 0 {
			for i := range b.runs {
				if b.runs[i] != first[i] {
					res.failed++
				}
			}
		}
		lines = b.lines
		res.note("batch %d: %d runs in %.3fs, host steal %.1f%%", rep, len(specs), b.wall.Seconds(), 100*(1-b.given))
	}
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	for _, l := range lines {
		res.note("%s", l)
	}
	idx := sampleIndices(cfg.seed+1, len(specs), w.exactSample)
	bad, err := exactMismatches(ctx, seededSession(cfg.seed), specs, first, idx)
	if err != nil {
		return nil, err
	}
	res.failed += bad
	res.note("reference loop: %d/%d sampled runs bit-identical", len(idx)-bad, len(idx))

	m := res.metrics
	m["setup_s"] = setups
	m["runs_per_s"] = float64(completed) / givenTotal.Seconds()
	res.note("runs/s over the wall, steal included: %.4g", float64(completed)/total.Seconds())
	m["peak_rss_mb"] = rss
	m["op_p50_ms"] = walls.pct(0.50, &res.errs)
	m["op_p90_ms"] = walls.pct(0.90, &res.errs)
	m["turnaround_p50_ms"] = turn.pct(0.50, &res.errs)
	m["turnaround_p90_ms"] = turn.pct(0.90, &res.errs)
	res.note("samples: op %d, turnaround %d", len(walls.xs), len(turn.xs))
	return res, nil
}

// runColdTraced is the traced run of a cold workload: one checked batch
// through the workload's own entry point (executor counts, disk bytes),
// the untraced and traced in-process passes over the same specs, wire
// and disk-cache costs, and the API probe serving the batch's runs.
func runColdTraced(ctx context.Context, cfg *config, w coldWorkload) (*result, error) {
	res := newResult()
	m := res.metrics
	specs, err := w.specs(cfg.seed)
	if err != nil {
		return nil, err
	}
	want, _ := recordedDigest(w.name, cfg.seed)
	// Both passes carry a disk cache here: the probe serves the
	// reference pass's runs from it.
	dataDir := filepath.Join(cfg.work, "data")
	refDir := filepath.Join(dataDir, "cache")
	b, err := runColdBatch(ctx, cfg, w, specs, refDir, want)
	if err != nil {
		return nil, err
	}
	res.attempted += len(specs)
	res.failed += b.bad
	n := float64(len(specs))
	m["exec.started"] = float64(b.stats.Started)
	m["exec.cache_hits"] = float64(b.stats.CacheHits)
	m["exec.disk_hits"] = float64(b.stats.DiskHits)
	m["exec.coalesced"] = float64(b.stats.Coalesced)
	m["exec.failed"] = float64(b.stats.Failed)
	workers := runtime.GOMAXPROCS(0)
	m["exec.worker_busy_frac"] = b.stats.RunWall.Seconds() / (b.wall.Seconds() * float64(workers))
	m["op.samples"] = float64(len(b.rec.walls))
	m["turnaround.samples"] = float64(len(b.rec.turn))
	size, err := dirSize(refDir)
	if err != nil {
		return nil, err
	}
	m["diskcache.bytes_per_run"] = float64(size) / n

	res.note("reference batch: wall %.3fs", b.wall.Seconds())
	if err := attributeInProcess(ctx, cfg, res, seededSession(cfg.seed), specs, b.runs); err != nil {
		return nil, err
	}

	enc, dec, bad := wireCosts(b.runs)
	m["wire.encode_us_per_run"], m["wire.decode_us_per_run"] = enc, dec
	res.failed += bad

	session := seededSession(cfg.seed)
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = session.RunID(s)
	}
	getUS, missing := diskGetUS(refDir, ids, &res.errs)
	m["diskcache.get_us"] = getUS
	if missing > 0 {
		return nil, fmt.Errorf("%d of %d runs missing from the disk cache", missing, len(ids))
	}

	if err := runProbe(ctx, cfg, res, dataDir, session, specs, ids, b.runs); err != nil {
		return nil, err
	}
	return res, nil
}

package main

// The catalog is the benchmark's definition in one place: every
// workload with the reason it was chosen, and every metric with its
// unit, direction, regression bound (end-to-end metrics only), how it
// is measured on each workload, which end-to-end metric it should move
// on which workload, and which field of the older one-shot reports
// (BENCH_sim.json, BENCH_api.json) it supersedes. BENCHMARK.json at the
// repository root carries the same names, units, directions and bounds
// (catalog_test.go keeps the two in step); `perfbench --list` prints
// the whole catalog.

type workloadInfo struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why string
	// Detail is the longer rationale printed by --list.
	Detail string
}

var workloads = []workloadInfo{
	{
		Name: "paper-cold",
		Why:  "the paper's full 900-run protocol grid on an empty executor: long noisy runs where simulator physics and control dominate, the cost users pay per campaign",
		Detail: "experiment.RunGrid with default options (10 apps x {baseline, DUF, DUFP} x 4 tolerances x 10 runs) " +
			"under a session seeded by --seed, repeated on a fresh default executor until --seconds is spent. " +
			"Per-run setup, keys and the executor barely register; a physics or control change shows most here.",
	},
	{
		Name: "fleet-cold",
		Why:  "2000 distinct ~1 s synthetic DUFP runs as one SummarizeAll batch with a disk cache: per-run fixed costs (keys, setup, reseeding, actuation encode, cache writes) dominate",
		Detail: "Seeded SteadyApp runs (compute/memory/balanced, 0.8-1.2 simulated s, DUFP at a seeded tolerance), " +
			"one Session.SummarizeAll batch per fresh default executor with an empty disk cache attached. " +
			"A setup or executor change shows here and not on paper-cold; a physics change shows more on paper-cold.",
	},
}

type metricInfo struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Def says how the metric is measured, per workload where it differs.
	Def string
	// Moves predicts which end-to-end metric, on which workload, a change
	// to this metric's layer should move.
	Moves string
	// Supersedes names the BENCH_sim.json / BENCH_api.json field(s) the
	// metric replaces, if any.
	Supersedes string
}

// endToEnd metrics are measured with tracing off (--trace 0), on every
// workload.
var endToEnd = []metricInfo{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "median over 21 fresh processes of the benchmark binary in set-up mode, each timing its own set-up: " +
			"building the workload's run specs, a default executor (fleet-cold: with an empty disk cache) and the " +
			"seeded session on it, up to the point where the first run could be submitted. Process and Go runtime " +
			"start are not part of it."},
	{Name: "runs_per_s", Unit: "runs/s", Better: "higher", Bound: 0.25,
		Def: "completed runs / run time given over the run's window of whole batches. Each batch is timed from " +
			"its first submit to its last outcome; its run time given is that wall less the host's steal over it " +
			"(/proc/stat steal / CPUs), the time the hypervisor ran other guests on this machine's CPUs. On bare " +
			"metal steal is 0 and this is the wall rate. On a shared 2-vCPU host steal comes and goes in phases of " +
			"minutes (in one 60 s fleet-cold run: 7% of each batch on average, up to 16%), which moved the wall " +
			"rate from one run to the next; the report prints the wall rate too. Pooled over the window, not a median of " +
			"per-batch rates: paper-cold fits only about seven ~8 s batches in a window.",
		Supersedes: "BENCH_sim fig3_grid_wall_seconds, fig3_grid_wall_seconds_p1 (paper-cold: 900 runs / wall); " +
			"fleet_grid_wall_seconds_p1 (fleet-cold: runs / wall)"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15,
		Def:        "VmHWM of the benchmark process, which does the work, at the end of the measured window.",
		Supersedes: "BENCH_sim campaign_peak_rss_bytes"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "median over every run of the measured window of its execution wall, from the executor's completion events."},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "90th percentile of the op_p50_ms samples. p90, not p99: on a 2-vCPU host whose cores run at two speeds " +
			"depending on neighbour load, p99 of fleet-cold's ~1 ms runs measured host scheduling hiccups, with a " +
			"run-to-run spread (IQR/median 0.42) wider than any allowed bound."},
	{Name: "turnaround_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "median over runs of the time from the batch's RunGrid/SummarizeAll call to the run's executor " +
			"completion event, times the batch's share of run time given (see runs_per_s)."},
	{Name: "turnaround_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "90th percentile of the turnaround_p50_ms samples."},
}

// apiMoves is the prediction of every API-layer metric: no kept
// workload measures the HTTP surface end to end, so these layers are
// watched through the traced run's probe alone.
const apiMoves = "no gated end-to-end metric (the HTTP surface is measured only by the traced run's API probe)"

// perLayer metrics come only from the separate traced run (--trace 1):
// a checked reference batch, the in-process untraced and traced passes
// over all of the workload's run specs, and the API probe.
var perLayer = []metricInfo{
	{Name: "dufp.key_us_per_run", Unit: "us", Better: "lower",
		Def:   "Session.RunID timed per run spec of the workload (content-key build).",
		Moves: "runs_per_s on fleet-cold (about 0 on paper-cold)"},
	{Name: "dufp.setup_us_per_run", Unit: "us", Better: "lower",
		Def:   "self time of span stage 'setup' per run in the traced pass.",
		Moves: "runs_per_s on fleet-cold"},
	{Name: "dufp.alloc_kb_per_run", Unit: "KiB", Better: "lower",
		Def:   "runtime/metrics /gc/heap/allocs:bytes delta over the untraced reference pass / runs.",
		Moves: "runs_per_s on fleet-cold, peak_rss_mb"},
	{Name: "dufp.gc_cpu_frac", Unit: "fraction", Better: "lower",
		Def:   "runtime/metrics GC CPU seconds / total CPU seconds over the untraced reference pass.",
		Moves: "runs_per_s on fleet-cold, peak_rss_mb"},
	{Name: "sim.physics_us_per_simsec", Unit: "us/simsec", Better: "lower",
		Def:        "(span stage 'sim' self time - Summary.RoundNS) / simulated seconds, summed over the traced pass.",
		Moves:      "runs_per_s on paper-cold (most), fleet-cold",
		Supersedes: "BENCH_sim run_governed_ns_per_simsec (physics share only)"},
	{Name: "sim.rounds", Unit: "count", Better: "lower",
		Def:   "span Summary.Rounds summed over the traced pass (exact).",
		Moves: "explains physics and control time"},
	{Name: "sim.skipped_rounds", Unit: "count", Better: "higher",
		Def:   "span Summary.SkippedRounds summed over the traced pass (exact).",
		Moves: "explains physics and control time"},
	{Name: "control.us_per_round", Unit: "us", Better: "lower",
		Def:   "Summary.RoundNS / Summary.Rounds over the traced pass: governor decision plus powercap/msr/rapl/papi/uncore actuation and sensing.",
		Moves: "runs_per_s on paper-cold and fleet-cold"},
	{Name: "exec.started", Unit: "count", Better: "lower",
		Def:   "Executor.Stats of the checked reference batch (exact). Checks the workload shape.",
		Moves: "workload shape"},
	{Name: "exec.cache_hits", Unit: "count", Better: "higher",
		Def: "as exec.started.", Moves: "workload shape"},
	{Name: "exec.disk_hits", Unit: "count", Better: "higher",
		Def: "as exec.started.", Moves: "workload shape"},
	{Name: "exec.coalesced", Unit: "count", Better: "higher",
		Def: "as exec.started.", Moves: "workload shape"},
	{Name: "exec.failed", Unit: "count", Better: "lower",
		Def: "as exec.started.", Moves: "workload shape"},
	{Name: "exec.worker_busy_frac", Unit: "fraction", Better: "higher",
		Def:   "Stats.RunWall / (batch wall x workers) of the reference batch.",
		Moves: "runs_per_s on both cold workloads"},
	{Name: "diskcache.get_us", Unit: "us", Better: "lower",
		Def:        "p50 of Executor.DiskGetByID for every run, on a fresh executor over the reference batch's disk cache.",
		Moves:      "api.get_run_p50_ms (runs the daemon serves from disk)",
		Supersedes: "BENCH_sim disk_cache_read_runs_per_s (as a single-lookup latency)"},
	{Name: "diskcache.bytes_per_run", Unit: "B", Better: "lower",
		Def:   "cache-dir growth / runs written by the reference batch.",
		Moves: "runs_per_s on fleet-cold"},
	{Name: "wire.encode_us_per_run", Unit: "us", Better: "lower",
		Def:   "wire JSON marshal of the workload's Run values.",
		Moves: "api.get_run_p50_ms, api.post_run_p50_ms"},
	{Name: "wire.decode_us_per_run", Unit: "us", Better: "lower",
		Def:   "strict wire JSON unmarshal of the same values.",
		Moves: "api.get_run_p50_ms, api.post_run_p50_ms"},
	{Name: "api.boot_ms", Unit: "ms", Better: "lower",
		Def:   "the API probe's dufpd start until /v1/healthz is ok, over a data dir holding the reference batch's disk cache.",
		Moves: "daemon start-up cost; " + apiMoves},
	{Name: "api.post_run_p50_ms", Unit: "ms", Better: "lower",
		Def: "client-side p50 of POST /v1/runs (idempotent re-POSTs of the batch's runs), timed from due time, in the " +
			"API probe: a 12 s seeded open-loop mix (100 reads/s, 5 new sweep campaigns/s, nproc connections) against " +
			"a dufpd child serving the batch's runs from the reference batch's disk cache.",
		Moves: apiMoves, Supersedes: "BENCH_api post_run.p50_ms"},
	{Name: "api.get_run_p50_ms", Unit: "ms", Better: "lower",
		Def: "as api.post_run_p50_ms, for GET /v1/runs/{id}.", Moves: apiMoves,
		Supersedes: "BENCH_api get_run.p50_ms"},
	{Name: "api.get_campaign_p50_ms", Unit: "ms", Better: "lower",
		Def:   "as api.post_run_p50_ms, for GET /v1/campaigns/{id} of a finished campaign with summaries.",
		Moves: apiMoves, Supersedes: "BENCH_api get_campaign.p50_ms"},
	{Name: "api.post_campaign_p50_ms", Unit: "ms", Better: "lower",
		Def: "as api.post_run_p50_ms, for POST /v1/campaigns of a new sweep.", Moves: apiMoves},
	{Name: "api.post_run_count", Unit: "count", Better: "higher",
		Def: "samples behind api.post_run_p50_ms.", Supersedes: "BENCH_api post_run.count"},
	{Name: "api.get_run_count", Unit: "count", Better: "higher",
		Def: "samples behind api.get_run_p50_ms.", Supersedes: "BENCH_api get_run.count"},
	{Name: "api.get_campaign_count", Unit: "count", Better: "higher",
		Def: "samples behind api.get_campaign_p50_ms.", Supersedes: "BENCH_api get_campaign.count"},
	{Name: "api.post_campaign_count", Unit: "count", Better: "higher",
		Def: "samples behind api.post_campaign_p50_ms."},
	{Name: "api.queue_wait_p50_ms", Unit: "ms", Better: "lower",
		Def:   "p50 of span stage 'queue' in the daemon's /v1/runs/{id}/trace?format=summary of the probe's new campaigns' runs.",
		Moves: apiMoves, Supersedes: "BENCH_api span_queue_wait.p50_ms"},
	{Name: "api.service_p50_ms", Unit: "ms", Better: "lower",
		Def:   "p50 of the same traces' total minus their 'queue' stage.",
		Moves: apiMoves, Supersedes: "BENCH_api span_service.p50_ms"},
	{Name: "api.server_cpu_us_per_req", Unit: "us", Better: "lower",
		Def:   "dufpd CPU (utime+stime from /proc/<pid>/stat) over the probe's mix / requests sent.",
		Moves: apiMoves},
	{Name: "client.cpu_us_per_req", Unit: "us", Better: "lower",
		Def:   "generator CPU (getrusage of the benchmark process) over the probe's mix / requests sent, kept apart from the daemon's.",
		Moves: "none: validity of the probe (the generator must not starve the daemon)"},
	{Name: "api.resp_bytes_per_req", Unit: "B", Better: "lower",
		Def:   "response body bytes / requests over the probe's mix.",
		Moves: apiMoves},
	{Name: "api.queue_depth_max", Unit: "count", Better: "lower",
		Def:   "max queue_depth of /v1/healthz sampled every 100 ms during the probe's mix.",
		Moves: apiMoves, Supersedes: "BENCH_api queue_depth_max"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower",
		Def:   "p99 of how far behind its due time the generator sent each request of the probe's mix.",
		Moves: "none: validity of the probe"},
	{Name: "op.samples", Unit: "count", Better: "higher",
		Def: "runs behind the reference batch's op latencies (the traced run's own measured window)."},
	{Name: "turnaround.samples", Unit: "count", Better: "higher",
		Def: "runs behind the reference batch's turnaround times."},
	{Name: "traced.overhead_frac", Unit: "fraction", Better: "lower",
		Def:        "(traced pass wall - untraced reference pass wall) / untraced wall, same specs, same worker count.",
		Moves:      "none: honesty of the split",
		Supersedes: "BENCH_sim span_overhead_pct"},
	{Name: "traced.unattributed_frac", Unit: "fraction", Better: "lower",
		Def: "1 - (measured module self times) / (traced pass wall x workers). The measured modules are the key " +
			"build (Session.RunID, timed apart) and every span stage. What is left is each Session.Run call's time " +
			"outside its span tree beyond the key build and the goroutine pool's idle time; the report splits the " +
			"two, and the call time into before the trace opened (on fleet-cold 8-10% of the wall: the facade " +
			"builds the content key twice under load, where the key build timed apart covers 2-5%) and after it " +
			"closed. The run fails its checks when this leaves [-0.10, 0.10].",
		Moves: "none: honesty of the split"},
}

// reconcileTolerance bounds |traced.unattributed_frac|.
const reconcileTolerance = 0.10

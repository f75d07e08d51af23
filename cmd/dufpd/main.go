// Command dufpd is the long-running campaign daemon: the harness's run
// executor behind a versioned HTTP/JSON API.
//
//	dufpd -listen :8080 -data-dir /var/lib/dufpd
//
// Clients submit single runs (POST /v1/runs) or whole campaigns — Fig-3
// grids, tolerance sweeps, fault-robustness ladders — (POST
// /v1/campaigns) and follow them by polling or SSE (GET
// /v1/runs/{id}/events). Results are durably backed by the executor's
// disk cache and accepted campaigns are journaled, so a restarted
// daemon resumes where it stopped: replayed runs whose results are on
// disk complete without re-simulation, bit-identical to the originals.
// The same listener also serves the observability surface (/metrics,
// /runs, /timeline/, /debug/pprof/), and every dispatched run leaves a
// span trace in a bounded flight recorder, served as Perfetto-loadable
// Chrome trace-event JSON from GET /v1/runs/{id}/trace. Dispatched runs
// also stream their trace into a bounded per-run reservoir
// (-sample-capacity runs, -sample-points per socket): GET
// /v1/runs/{id}/samples serves the retained series paginated
// (?socket=&offset=&limit=) or as NDJSON (?format=ndjson), and GET
// /v1/runs/{id}?include=trace embeds the full wire v1.1 result.
//
// On SIGINT/SIGTERM the daemon stops intake and drains in-flight runs
// for -drain-timeout before exiting; a second signal kills it
// immediately.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dufp"
	"dufp/internal/api"
)

func main() { os.Exit(daemonMain()) }

func daemonMain() int {
	var (
		listen    = flag.String("listen", ":8080", "address to serve the Run API and observability endpoints on")
		dataDir   = flag.String("data-dir", envOr("DUFP_DATA_DIR", "dufpd-data"), "directory for the campaign journal and (by default) the run cache")
		cacheDir  = flag.String("cache-dir", "", "run cache directory (default: <data-dir>/cache)")
		workers   = flag.Int("parallel", 0, "max concurrent simulations (default: GOMAXPROCS)")
		queue     = flag.Int("queue", 256, "bounded job queue depth; full queue rejects single-run submissions with 429")
		seed      = flag.Int64("seed", 42, "base seed of the measurement campaigns")
		drainFor  = flag.Duration("drain-timeout", 30*time.Second, "how long to drain in-flight runs on shutdown before aborting them")
		spanCap   = flag.Int("span-capacity", 0, "span flight-recorder ring size for /v1/runs/{id}/trace (0: default 256, negative: disable tracing)")
		spanSlow  = flag.Duration("span-slow", 0, "slow-run budget: log the full span tree of any run over this wall clock (0: off)")
		sampleCap = flag.Int("sample-capacity", 0, "trace sample store: runs retained for /v1/runs/{id}/samples (0: default 64, negative: disable)")
		samplePts = flag.Int("sample-points", 0, "per-socket reservoir size of each retained run's samples (0: default 8192)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "dufpd: ", log.LstdFlags)

	if *cacheDir == "" {
		*cacheDir = filepath.Join(*dataDir, "cache")
	}
	var eopts []dufp.ExecutorOption
	eopts = append(eopts, dufp.ExecDiskCache(*cacheDir))
	if *workers > 0 {
		eopts = append(eopts, dufp.ExecWorkers(*workers))
	}
	executor := dufp.NewExecutor(eopts...)
	defer executor.Close()
	if w := executor.DiskWarning(); w != "" {
		logger.Print(w)
	}

	session := dufp.NewSession()
	session.Seed = *seed
	// -parallel bounds both layers: the executor's concurrent simulations
	// and (via api.Config.Workers' 2× default) the dispatchers draining
	// the queue, so widening one widens the whole path.
	daemon, err := api.New(api.Config{
		Session:               session,
		Executor:              executor,
		QueueDepth:            *queue,
		DataDir:               *dataDir,
		Logf:                  logger.Printf,
		SpanCapacity:          *spanCap,
		SpanSlowThreshold:     *spanSlow,
		SampleCapacity:        *sampleCap,
		SamplePointsPerSocket: *samplePts,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer daemon.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Print(err)
		return 1
	}
	// Take over SIGINT/SIGTERM before the first request can be served: a
	// signal that arrives as soon as /v1/healthz answers must drain the
	// daemon, not kill it with the default action.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	srv := &http.Server{Handler: daemon.FullHandler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Printf("serving Run API on %s (data: %s, cache: %s, queue: %d, simulations: %d, dispatchers: %d)",
		ln.Addr(), *dataDir, *cacheDir, *queue, executor.Workers(), daemon.Workers())

	select {
	case err := <-serveErr:
		logger.Print(err)
		return 1
	case sig := <-sigs:
		logger.Printf("%s: draining (up to %s; signal again to abort)", sig, *drainFor)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	go func() {
		<-sigs
		logger.Print("second signal: aborting in-flight runs")
		cancel()
	}()
	if err := daemon.Drain(drainCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer shutCancel()
	srv.Shutdown(shutCtx)
	logger.Print("bye")
	return 0
}

// envOr returns the environment variable or a fallback.
func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

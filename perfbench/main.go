// Command perfbench is the repository's benchmark. It measures its
// workloads through the public entry points only — experiment.RunGrid
// and Session.SummarizeAll in process, the /v1 HTTP surface of a dufpd
// child process — checks that every output is correct, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 55 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that yields the per-module metrics. The
// workloads, metrics and their predictions are listed in catalog.go
// (`--list` prints them). run.sh builds this program and dufpd from the
// checkout first; all files live under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dufpd    string
	work     string
	self     string
}

// result is what one invocation reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
	errs              []error
	reconciled        bool
}

func newResult() *result { return &result{metrics: map[string]float64{}, reconciled: true} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// reconcile records whether the module self times add back up to the
// traced wall within reconcileTolerance.
func (r *result) reconcile(unattributed float64) {
	if unattributed < -reconcileTolerance || unattributed > reconcileTolerance {
		r.reconciled = false
		r.note("RECONCILIATION FAILED: %.1f%% of the traced wall is unattributed (tolerance ±%.0f%%)",
			100*unattributed, 100*reconcileTolerance)
	}
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-cold or fleet-cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are drawn from")
	flag.IntVar(&seconds, "seconds", 55, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-module metrics")
	flag.StringVar(&cfg.dufpd, "dufpd", ".bench_build/dufpd", "dufpd binary built from this checkout")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory (a per-process subdirectory is used and removed)")
	setup := flag.Bool("setup-only", false, "internal: set-up probe of a cold workload")
	list := flag.Bool("list", false, "print the workload and metric catalog and exit")
	record := flag.String("record-digests", "", "recompute the cold workloads' run digests for seeds 1..20 into this file and exit")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, &cfg, seconds, trace, *setup, *list, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg *config, seconds, trace int, setup, list bool, record string) error {
	switch {
	case list:
		printCatalog(os.Stdout)
		return nil
	case record != "":
		return recordDigests(ctx, record)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if setup {
		w, ok := coldWorkloadNamed(cfg.workload)
		if !ok {
			return fmt.Errorf("no set-up probe for workload %q", cfg.workload)
		}
		return setupOnly(w, cfg.seed, cfg.work)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cfg.self = self
	if _, err := os.Stat(cfg.dufpd); err != nil {
		return fmt.Errorf("dufpd binary: %w (run through perfbench/run.sh)", err)
	}
	cfg.work = filepath.Join(cfg.work, fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	w, ok := coldWorkloadNamed(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (paper-cold, fleet-cold)", cfg.workload)
	}
	var res *result
	if cfg.trace {
		res, err = runColdTraced(ctx, cfg, w)
	} else {
		res, err = runCold(ctx, cfg, w)
	}
	if err != nil {
		return err
	}
	if err := errors.Join(res.errs...); err != nil {
		return fmt.Errorf("refusing to report: %w", err)
	}
	return emit(os.Stderr, os.Stdout, cfg, res)
}

// emit prints the human report to rep and the JSON result line to out.
// Every metric of the invocation's catalog list must be present.
func emit(rep, out io.Writer, cfg *config, res *result) error {
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	fmt.Fprintf(rep, "perfbench %s seed %d, %s, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range res.notes {
		fmt.Fprintf(rep, "  %s\n", strings.ReplaceAll(n, "\n", "\n  "))
	}
	for _, mi := range list {
		v, ok := res.metrics[mi.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", mi.Name)
		}
		metrics[mi.Name] = value{v, mi.Unit}
		fmt.Fprintf(rep, "  %-28s %14.6g %s\n", mi.Name, v, mi.Unit)
	}
	var extra []string
	for name := range res.metrics {
		if _, ok := metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("measured metrics outside the catalog's list: %s", strings.Join(extra, ", "))
	}
	correct := res.failed == 0 && res.reconciled
	fmt.Fprintf(rep, "  error_rate %.6f (%d failed of %d attempted), correct %v\n",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted, correct)
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// setupRepeats is how many fresh processes setup_s takes the median
// of: 21 leaves ten samples beyond the median.
const setupRepeats = 21

// probeSetups starts setupRepeats fresh processes of this binary in
// set-up mode, each of which times its own set-up, and returns the
// median, in seconds.
func probeSetups(ctx context.Context, cfg *config, workload string) (float64, error) {
	s := sample{name: "setup_s"}
	for k := 0; k < setupRepeats; k++ {
		cmd := exec.CommandContext(ctx, cfg.self, "--setup-only", "--workload", workload,
			"--seed", fmt.Sprint(cfg.seed), "--work", cfg.work)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var secs float64
		if n, _ := fmt.Sscanf(string(out), "ready %g\n", &secs); err != nil || n != 1 || secs <= 0 {
			return 0, fmt.Errorf("set-up probe: %q %v", out, err)
		}
		s.add(secs)
	}
	return percentile(s.xs, 0.5)
}

// printCatalog writes the workloads and metrics as Markdown.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "# perfbench catalog")
	fmt.Fprintln(w, "\n## Workloads")
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n- **%s**: %s\n  %s\n", wl.Name, wl.Why, wl.Detail)
	}
	for _, sec := range []struct {
		title string
		list  []metricInfo
	}{{"End-to-end metrics (--trace 0)", endToEnd}, {"Per-module metrics (--trace 1)", perLayer}} {
		fmt.Fprintf(w, "\n## %s\n", sec.title)
		for _, m := range sec.list {
			fmt.Fprintf(w, "\n- **%s** [%s, %s", m.Name, m.Unit, m.Better)
			if m.Bound > 0 {
				fmt.Fprintf(w, ", bound %.2f", m.Bound)
			}
			fmt.Fprintf(w, "]: %s\n", m.Def)
			if m.Moves != "" {
				fmt.Fprintf(w, "  Moves: %s.\n", m.Moves)
			}
			if m.Supersedes != "" {
				fmt.Fprintf(w, "  Supersedes: %s.\n", m.Supersedes)
			}
		}
	}
}

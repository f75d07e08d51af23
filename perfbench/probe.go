package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dufp"
	"dufp/internal/api"
	"dufp/internal/obs/span"
)

// The API probe of the cold workloads' traced runs: a dufpd child
// serves the workload's own runs, and the open-loop generator drives a
// short seeded mix at it through the /v1 HTTP surface only.

const (
	// apiRate is the read mix's fixed offered rate (requests/s). On a
	// 2-vCPU host the daemon's read path saturated between 1500 and
	// 2500 req/s; at 100 req/s it is lightly loaded, so latency measures
	// service cost rather than queueing.
	apiRate = 100.0
	// probeRuns is how many of the batch's runs the mix reads.
	probeRuns = 160
	// checkSample is how many distinct fetched runs are re-executed
	// in-process and compared after the mix.
	checkSample = 24
	// probeLength and probeCampRate shape the mix: 60 new sweep
	// campaigns over 12 s.
	probeLength   = 12 * time.Second
	probeCampRate = 5.0
)

// connections is the generator's connection budget: nproc.
func connections() int { return runtime.NumCPU() }

// expandSweep lists a sweep campaign's member runs in the daemon's
// expansion order: applications sorted, then per application the
// baseline cell and one DUFP cell per tolerance, run indices 0..Runs-1.
func expandSweep(spec api.CampaignSpec) ([]dufp.RunSpec, error) {
	apps := slices.Clone(spec.Apps)
	slices.Sort(apps)
	var out []dufp.RunSpec
	for _, name := range apps {
		app, err := dufp.AppNamed(name)
		if err != nil {
			return nil, err
		}
		govs := []dufp.Governor{dufp.Baseline()}
		for _, tol := range spec.Tolerances {
			govs = append(govs, dufp.DUFP(dufp.DefaultControlConfig(tol)))
		}
		for _, g := range govs {
			for i := 0; i < spec.Runs; i++ {
				out = append(out, dufp.RunSpec{App: app, Governor: g, Idx: i})
			}
		}
	}
	return out, nil
}

// mixMetrics turns a mix into samples and counts.
type mixMetrics struct {
	late                        sample
	route                       map[string]*sample
	attempted, failed, requests int
	bytes                       int64
	errs                        map[string]int
}

func summarize(mr *mixResult) *mixMetrics {
	mm := &mixMetrics{route: map[string]*sample{}, errs: map[string]int{}}
	mm.late.name = "gen.late"
	routeOf := func(name string) *sample {
		s, ok := mm.route[name]
		if !ok {
			s = &sample{name: "api." + name + "_p50_ms"}
			mm.route[name] = s
		}
		return s
	}
	for _, r := range mr.reads {
		mm.attempted++
		mm.requests++
		mm.bytes += int64(r.bytes)
		mm.late.add(ms(r.late))
		if !r.ok {
			mm.failed++
			mm.errs[firstLine(r.err)]++
			continue
		}
		routeOf(opNames[r.kind]).add(ms(r.latency))
	}
	for _, c := range mr.campaigns {
		mm.attempted++
		mm.requests += 2 // the POST and its SSE stream
		mm.bytes += int64(c.bytes)
		mm.late.add(ms(c.late))
		if c.posted {
			routeOf("post_campaign").add(ms(c.postLat))
		}
		if !c.ok {
			mm.failed++
			mm.errs[firstLine(c.err)]++
		}
	}
	return mm
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// putMixLayers records the generator-side per-layer metrics of a mix.
func putMixLayers(res *result, mm *mixMetrics, mr *mixResult) {
	m := res.metrics
	for _, name := range []string{"post_run", "get_run", "get_campaign", "post_campaign"} {
		s := mm.route[name]
		if s == nil {
			s = &sample{name: "api." + name + "_p50_ms"}
		}
		m["api."+name+"_p50_ms"] = s.pct(0.5, &res.errs)
		m["api."+name+"_count"] = float64(len(s.xs))
	}
	m["api.resp_bytes_per_req"] = float64(mm.bytes) / float64(mm.requests)
	m["api.queue_depth_max"] = float64(mr.depthMax)
	m["gen.late_p99_ms"] = mm.late.pct(0.99, &res.errs)
	if mr.healthErr > 0 {
		res.note("%d healthz samples failed", mr.healthErr)
	}
}

// spanSplit fetches the daemon's span summaries of the new campaigns'
// runs and splits each run's daemon wall into queue wait and service.
func spanSplit(ctx context.Context, res *result, d *daemon, mr *mixResult) error {
	client := &http.Client{Timeout: 30 * time.Second}
	queue := sample{name: "api.queue_wait_p50_ms"}
	service := sample{name: "api.service_p50_ms"}
	for _, c := range mr.campaigns {
		if !c.ok {
			continue
		}
		var st api.CampaignStatus
		if _, _, err := doJSON(ctx, client, d.base, http.MethodGet, "/v1/campaigns/"+c.op.id, nil, http.StatusOK, &st); err != nil {
			return err
		}
		for _, id := range st.RunIDs {
			var sum span.Summary
			_, code, err := doJSON(ctx, client, d.base, http.MethodGet, "/v1/runs/"+id+"/trace?format=summary", nil, 0, &sum)
			if code == http.StatusNotFound {
				continue // served from the disk cache: never dispatched
			}
			if err != nil {
				return err
			}
			q := sum.Stage(span.StageQueue)
			queue.add(ms(q))
			service.add(ms(time.Duration(sum.TotalNS) - q))
		}
	}
	res.metrics["api.queue_wait_p50_ms"] = queue.pct(0.5, &res.errs)
	res.metrics["api.service_p50_ms"] = service.pct(0.5, &res.errs)
	res.note("span traces of dispatched campaign runs: %d", len(queue.xs))
	return nil
}

// checkMix verifies a mix's outputs: a seeded sample of the distinct
// runs the mix fetched must equal in-process runs of the same specs,
// and the new campaigns must hold exactly the runs their in-process
// expansion names, with sampled members equal to in-process runs.
func checkMix(ctx context.Context, res *result, d *daemon, c *corpus, mr *mixResult, seed int64) error {
	exe := dufp.NewExecutor()
	defer exe.Close()
	local := c.session.OnExecutor(exe)
	got := map[string][]*dufp.Run{}
	var ids []string
	for _, r := range mr.reads {
		if r.ok && r.run != nil {
			if _, seen := got[r.id]; !seen {
				ids = append(ids, r.id)
			}
			got[r.id] = append(got[r.id], r.run)
		}
	}
	wrong := 0
	for _, i := range sampleIndices(seed+2, len(ids), checkSample) {
		want, err := local.Run(ctx, c.specOf[ids[i]])
		if err != nil {
			return err
		}
		for _, run := range got[ids[i]] {
			if *run != want.Run {
				wrong++
			}
		}
	}
	var okCamps []campResult
	for _, cr := range mr.campaigns {
		if cr.ok {
			okCamps = append(okCamps, cr)
		}
	}
	checked := 0
	client := &http.Client{Timeout: 30 * time.Second}
	for _, i := range sampleIndices(seed+3, len(okCamps), 4) {
		cr := okCamps[i]
		members, err := expandSweep(cr.op.spec)
		if err != nil {
			return err
		}
		var st api.CampaignStatus
		if _, _, err := doJSON(ctx, client, d.base, http.MethodGet, "/v1/campaigns/"+cr.op.id, nil, http.StatusOK, &st); err != nil {
			return err
		}
		if len(st.RunIDs) != len(members) {
			wrong++
			continue
		}
		for k, s := range members {
			if st.RunIDs[k] != c.session.RunID(s) {
				wrong++
			}
		}
		for _, k := range sampleIndices(seed+int64(i), len(members), 2) {
			var rs api.RunStatus
			if _, _, err := doJSON(ctx, client, d.base, http.MethodGet, "/v1/runs/"+st.RunIDs[k], nil, http.StatusOK, &rs); err != nil {
				return err
			}
			want, err := local.Run(ctx, members[k])
			if err != nil {
				return err
			}
			if rs.Run == nil || *rs.Run != want.Run {
				wrong++
			}
			checked++
		}
	}
	res.failed += wrong
	res.note("checks: %d sampled fetched runs and %d new-campaign runs re-executed in-process, %d wrong",
		min(checkSample, len(ids)), checked, wrong)
	return nil
}

// runProbe serves a cold workload's runs from the reference batch's
// disk cache through a dufpd child and drives a short mix at it: the
// cold workloads' measurement of the API layers. The daemon runs under
// the workload's session seed, so the batch's runs are its own.
func runProbe(ctx context.Context, cfg *config, res *result, dataDir string, session dufp.Session, specs []dufp.RunSpec, ids []string, runs []dufp.Run) error {
	d, boot, err := startDaemon(ctx, cfg.dufpd, dataDir, "-seed", strconv.FormatInt(cfg.seed, 10))
	if err != nil {
		return err
	}
	res.metrics["api.boot_ms"] = ms(boot)
	defer func() {
		if d.alive() {
			d.stop()
		}
	}()
	c := &corpus{session: session, taken: map[string]bool{}, specOf: map[string]dufp.RunSpec{}}
	for _, i := range sampleIndices(cfg.seed+4, len(specs), probeRuns) {
		c.prior = append(c.prior, specs[i])
		c.priorIDs = append(c.priorIDs, ids[i])
		c.specOf[ids[i]] = specs[i]
	}
	// One finished campaign gives the mix its tracked runs and its
	// campaign reads.
	suite := dufp.Suite()
	app := suite[sampleIndices(cfg.seed+5, len(suite), 1)[0]]
	prep := api.CampaignSpec{V: dufp.WireVersion, Kind: api.KindSweep,
		Apps: []string{app.Name}, Tolerances: []float64{0.1}, Runs: 3}
	prepID, err := api.CampaignID(prep)
	if err != nil {
		return err
	}
	c.taken[prepID] = true
	c.campaigns = []string{prepID}
	members, err := expandSweep(prep)
	if err != nil {
		return err
	}
	for _, s := range members {
		id := session.RunID(s)
		c.specOf[id] = s
		c.tracked = append(c.tracked, id)
	}
	client := &http.Client{Timeout: time.Minute}
	body, err := json.Marshal(prep)
	if err != nil {
		return err
	}
	var st api.CampaignStatus
	if _, _, err := doJSON(ctx, client, d.base, http.MethodPost, "/v1/campaigns", body, 0, &st); err != nil {
		return err
	}
	for st.State != api.StateDone {
		if st.State == api.StateFailed {
			return fmt.Errorf("probe campaign failed: %s", st.Error)
		}
		time.Sleep(20 * time.Millisecond)
		if _, _, err := doJSON(ctx, client, d.base, http.MethodGet, "/v1/campaigns/"+prepID, nil, http.StatusOK, &st); err != nil {
			return err
		}
	}

	plan, err := planMix(cfg.seed, c, apiRate, probeCampRate, probeLength)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	self0 := selfCPU()
	mr, err := runMix(ctx, d, c, plan, connections())
	if err != nil {
		return err
	}
	self1 := selfCPU()
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return fmt.Errorf("reading dufpd's CPU time: %w", err)
	}
	mm := summarize(mr)
	res.attempted += mm.attempted
	res.failed += mm.failed
	for e, n := range mm.errs {
		res.note("probe: %d failed: %s", n, e)
	}
	if !d.alive() {
		// Nothing a dead daemon measured can be reported; its crash is the
		// result.
		return fmt.Errorf("dufpd died during the probe (%d of %d operations failed): %v\n%s",
			mm.failed, mm.attempted, d.err, d.tail())
	}
	putMixLayers(res, mm, mr)
	res.metrics["api.server_cpu_us_per_req"] = us(cpu1-cpu0) / float64(mm.requests)
	res.metrics["client.cpu_us_per_req"] = us(self1-self0) / float64(mm.requests)
	if err := spanSplit(ctx, res, d, mr); err != nil {
		return err
	}
	res.note("probe: %d reads at %.0f/s and %d campaigns at %.0f/s over %s against the batch's runs, %d connections",
		len(plan.reads), apiRate, len(plan.campaigns), probeCampRate, probeLength, connections())

	// Every run the probe fetched must be the batch's run.
	byID := map[string]dufp.Run{}
	for i, id := range ids {
		byID[id] = runs[i]
	}
	wrong := 0
	for _, r := range mr.reads {
		if !r.ok || r.run == nil {
			continue
		}
		if want, ok := byID[r.id]; ok && *r.run != want {
			wrong++
		}
	}
	res.failed += wrong
	if err := checkMix(ctx, res, d, c, mr, cfg.seed); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		res.note("probe: %v", err)
	}
	return nil
}

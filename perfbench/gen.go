package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"dufp"
	"dufp/internal/api"
)

// The open-loop load generator. One process, one pool of at most nproc
// connections. Every request, and every new campaign (its POST, then
// its SSE stream followed to the end), starts in its own goroutine at
// the moment it is due, whatever happened to the ones before it, and is
// timed from that moment: a stall charges its wait to every request
// queued behind it, and an open SSE stream holds one of the pool's
// connections like any other request. How late the generator itself
// sent is reported separately.

// opKind is one request type of the read mix.
type opKind int

const (
	opGetPrior    opKind = iota // GET /v1/runs/{id} of a run on disk only (disk-cache path)
	opGetTracked                // GET /v1/runs/{id} of a campaign member (in memory)
	opGetCampaign               // GET /v1/campaigns/{id} of a finished campaign with summaries
	opPostRun                   // idempotent re-POST /v1/runs of a prior single run
	numOpKinds
)

var opNames = [numOpKinds]string{"get_run", "get_run", "get_campaign", "post_run"}

// opWeights is the read mix: mostly reads, some idempotent re-POSTs.
var opWeights = [numOpKinds]float64{0.45, 0.20, 0.15, 0.20}

// corpus is what the mix reads: runs the daemon serves from its disk
// cache and a finished campaign, all of it derivable from the seed.
type corpus struct {
	session   dufp.Session   // the daemon's session
	prior     []dufp.RunSpec // single runs, on disk only
	priorIDs  []string
	tracked   []string // member runs of the finished campaigns
	campaigns []string // finished campaigns
	taken     map[string]bool
	specOf    map[string]dufp.RunSpec // every run ID the mix may read
}

// mixOp is one scheduled read.
type mixOp struct {
	due  time.Duration
	kind opKind
	idx  int
}

// campaignOp is one scheduled new campaign.
type campaignOp struct {
	due  time.Duration
	spec api.CampaignSpec
	id   string
}

// mixPlan is the seeded schedule of one mix.
type mixPlan struct {
	reads     []mixOp
	campaigns []campaignOp
	length    time.Duration
}

// arrivals draws n independent arrival times uniform over length, in
// order: a Poisson process conditioned on its count, so every seed
// offers exactly the same load.
func arrivals(rng *rand.Rand, n int, length time.Duration) []time.Duration {
	ts := make([]time.Duration, n)
	for i := range ts {
		ts[i] = time.Duration(rng.Int63n(int64(length)))
	}
	slices.Sort(ts)
	return ts
}

// planMix draws the schedule of one mix from seed alone: reads at rate
// req/s and new sweep campaigns at campRate/s over length. A new
// campaign sweeps one suite application at a seed-drawn tolerance with
// one run per cell: a run the daemon does not hold yet means a cold
// simulation, a journal append, a disk-cache write and sample
// streaming. Small, frequent campaigns keep the simulation load even
// instead of bursty. Campaign IDs avoid every campaign the corpus
// already holds.
func planMix(seed int64, c *corpus, rate, campRate float64, length time.Duration) (mixPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := mixPlan{length: length}
	var cum [numOpKinds]float64
	total := 0.0
	for k, w := range opWeights {
		total += w
		cum[k] = total
	}
	for _, t := range arrivals(rng, int(math.Round(rate*length.Seconds())), length) {
		u := rng.Float64() * total
		k := opKind(0)
		for u > cum[k] {
			k++
		}
		var n int
		switch k {
		case opGetPrior, opPostRun:
			n = len(c.prior)
		case opGetTracked:
			n = len(c.tracked)
		case opGetCampaign:
			n = len(c.campaigns)
		}
		if n == 0 {
			return p, fmt.Errorf("corpus has nothing for %s", opNames[k])
		}
		p.reads = append(p.reads, mixOp{due: t, kind: k, idx: rng.Intn(n)})
	}
	suite := dufp.Suite()
	taken := map[string]bool{}
	for id := range c.taken {
		taken[id] = true
	}
	// Campaigns arrive on a fixed cadence with a seeded phase, and cycle
	// through seeded permutations of the suite: every seed offers the
	// same simulation work, in a different order and at different
	// tolerances, so the window's figures do not hinge on which
	// applications the seed happened to draw.
	n := int(math.Round(campRate * length.Seconds()))
	phase := rng.Float64()
	var perm []int
	for k := 0; k < n; k++ {
		if k%len(suite) == 0 {
			perm = rng.Perm(len(suite))
		}
		app := suite[perm[k%len(suite)]].Name
		t := time.Duration((float64(k) + phase) / campRate * float64(time.Second))
		for {
			spec := api.CampaignSpec{
				V:          dufp.WireVersion,
				Kind:       api.KindSweep,
				Apps:       []string{app},
				Tolerances: []float64{float64(10+rng.Intn(291)) / 1000},
				Runs:       1,
			}
			id, err := api.CampaignID(spec)
			if err != nil {
				return p, err
			}
			if taken[id] {
				continue
			}
			taken[id] = true
			p.campaigns = append(p.campaigns, campaignOp{due: t, spec: spec, id: id})
			break
		}
	}
	return p, nil
}

// opResult is the outcome of one read.
type opResult struct {
	kind    opKind
	latency time.Duration // due time to full response
	late    time.Duration // due time to send
	bytes   int
	body    []byte // until checkRead
	ok      bool
	err     string
	id      string
	run     *dufp.Run
}

// campResult is the outcome of one new campaign.
type campResult struct {
	op      campaignOp
	posted  bool // the POST succeeded; postLat is a sample
	postLat time.Duration
	late    time.Duration
	bytes   int
	ok      bool
	err     string
}

// mixResult is everything one mix measured.
type mixResult struct {
	reads     []opResult
	campaigns []campResult
	start     time.Time
	depthMax  int
	healthErr int
}

// runMix drives the plan against the daemon over at most conns
// connections, samples /v1/healthz every 100 ms, and waits for every
// request, including each campaign's SSE stream, to finish.
func runMix(ctx context.Context, d *daemon, c *corpus, p mixPlan, conns int) (*mixResult, error) {
	// A request due while every connection is busy waits for one; the
	// wait counts in its latency.
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	// Bodies are encoded before the clock starts.
	postBodies := make([][]byte, len(c.prior))
	for i, s := range c.prior {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("encoding run spec: %w", err)
		}
		postBodies[i] = b
	}
	campBodies := make([][]byte, len(p.campaigns))
	for i, op := range p.campaigns {
		b, err := json.Marshal(op.spec)
		if err != nil {
			return nil, err
		}
		campBodies[i] = b
	}

	// A stalled daemon cannot hold the benchmark past its time limit.
	mctx, cancel := context.WithTimeout(ctx, p.length+30*time.Second)
	defer cancel()
	res := &mixResult{reads: make([]opResult, len(p.reads)), campaigns: make([]campResult, len(p.campaigns))}
	res.start = time.Now()
	var wg sync.WaitGroup

	stopHealth := make(chan struct{})
	var healthWG sync.WaitGroup
	healthWG.Add(1)
	go func() {
		defer healthWG.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopHealth:
				return
			case <-tick.C:
			}
			var h api.Health
			if _, _, err := doJSON(mctx, client, d.base, http.MethodGet, "/v1/healthz", nil, http.StatusOK, &h); err != nil {
				res.healthErr++
				continue
			}
			res.depthMax = max(res.depthMax, h.QueueDepth)
		}
	}()

	// Campaigns and reads are launched by two schedulers, each starting
	// every operation in a goroutine of its own at its due time.
	var sched sync.WaitGroup
	sched.Add(1)
	go func() {
		defer sched.Done()
		for i, op := range p.campaigns {
			due := res.start.Add(op.due)
			sleepUntil(mctx, due)
			wg.Add(1)
			go func() {
				defer wg.Done()
				res.campaigns[i] = runCampaign(mctx, client, d.base, op, campBodies[i], due)
			}()
		}
	}()
	for i, op := range p.reads {
		due := res.start.Add(op.due)
		sleepUntil(mctx, due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.reads[i] = runRead(mctx, client, d.base, c, op, postBodies, due)
		}()
	}
	sched.Wait()
	wg.Wait()
	close(stopHealth)
	healthWG.Wait()
	for i := range res.reads {
		checkRead(&res.reads[i])
	}
	return res, nil
}

func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// runRead performs one read. Its body is kept and checked
// by checkRead after the window, so the generator spends as little CPU
// as it can beside the daemon.
func runRead(ctx context.Context, client *http.Client, base string, c *corpus, op mixOp, postBodies [][]byte, due time.Time) opResult {
	r := opResult{kind: op.kind, late: time.Since(due)}
	var err error
	switch op.kind {
	case opGetPrior:
		r.id = c.priorIDs[op.idx]
		r.body, err = fetch(ctx, client, base, http.MethodGet, "/v1/runs/"+r.id, nil, http.StatusOK)
	case opGetTracked:
		r.id = c.tracked[op.idx]
		r.body, err = fetch(ctx, client, base, http.MethodGet, "/v1/runs/"+r.id, nil, http.StatusOK)
	case opPostRun:
		r.id = c.priorIDs[op.idx]
		r.body, err = fetch(ctx, client, base, http.MethodPost, "/v1/runs", postBodies[op.idx], http.StatusOK)
	case opGetCampaign:
		r.id = c.campaigns[op.idx]
		r.body, err = fetch(ctx, client, base, http.MethodGet, "/v1/campaigns/"+r.id, nil, http.StatusOK)
	}
	r.latency = time.Since(due)
	r.bytes = len(r.body)
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// checkRead decodes a read's body strictly and validates it; a read
// whose transport already failed stays failed.
func checkRead(r *opResult) {
	if r.err != "" {
		return
	}
	var err error
	switch r.kind {
	case opGetPrior, opGetTracked, opPostRun:
		var st api.RunStatus
		if err = decodeStrict(r.body, &st); err == nil {
			err = checkRunStatus(st, r.id)
			r.run = st.Run
		}
	case opGetCampaign:
		var st api.CampaignStatus
		if err = decodeStrict(r.body, &st); err != nil {
			break
		}
		switch {
		case st.ID != r.id:
			err = fmt.Errorf("campaign %s answered as %s", r.id, st.ID)
		case st.State != api.StateDone || st.Done != st.Total || st.Failed != 0:
			err = fmt.Errorf("campaign %s is %s (%d/%d done, %d failed)", r.id, st.State, st.Done, st.Total, st.Failed)
		case len(st.Summaries) == 0 || len(st.RunIDs) != st.Total:
			err = fmt.Errorf("campaign %s: %d summaries, %d run ids of %d", r.id, len(st.Summaries), len(st.RunIDs), st.Total)
		}
	}
	r.body = nil
	r.ok = err == nil
	if err != nil {
		r.err = fmt.Sprintf("%s %s: %v", opNames[r.kind], r.id, err)
	}
}

// checkRunStatus validates a finished run's status body.
func checkRunStatus(st api.RunStatus, id string) error {
	switch {
	case st.ID != id:
		return fmt.Errorf("run %s answered as %s", id, st.ID)
	case st.State != api.StateDone || st.Run == nil:
		return fmt.Errorf("run %s is %s", id, st.State)
	}
	return nil
}

// runCampaign posts one new campaign and follows its SSE stream to the
// end.
func runCampaign(ctx context.Context, client *http.Client, base string, op campaignOp, body []byte, due time.Time) campResult {
	r := campResult{op: op, late: time.Since(due)}
	fail := func(err error) campResult {
		r.err = err.Error()
		return r
	}
	var st api.CampaignStatus
	n, code, err := doJSON(ctx, client, base, http.MethodPost, "/v1/campaigns", body, 0, &st)
	r.postLat, r.bytes = time.Since(due), n
	if err == nil && code != http.StatusAccepted && code != http.StatusOK {
		err = fmt.Errorf("POST /v1/campaigns: status %d", code)
	}
	if err != nil {
		return fail(err)
	}
	if st.ID != op.id {
		return fail(fmt.Errorf("campaign answered as %s, want %s", st.ID, op.id))
	}
	r.posted = true
	final := st
	if st.State != api.StateDone && st.State != api.StateFailed {
		err = streamCampaign(ctx, client, base, op.id, func(s api.CampaignStatus) { final = s })
		if err != nil {
			return fail(err)
		}
	}
	if final.State != api.StateDone || final.Failed != 0 || final.Done != final.Total {
		return fail(fmt.Errorf("campaign %s ended %s with %d/%d done, %d failed: %s", op.id, final.State, final.Done, final.Total, final.Failed, final.Error))
	}
	r.ok = true
	return r
}

// streamCampaign reads GET /v1/campaigns/{id}/events to its end,
// decoding every status event strictly.
func streamCampaign(ctx context.Context, client *http.Client, base, id string, onStatus func(api.CampaignStatus)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("SSE for %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	event := ""
	ended := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "status":
			var s api.CampaignStatus
			if err := decodeStrict([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
				return fmt.Errorf("SSE status for %s: %w", id, err)
			}
			onStatus(s)
		case strings.HasPrefix(line, "data: ") && event == "end":
			ended = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("SSE for %s: %w", id, err)
	}
	if !ended {
		return fmt.Errorf("SSE for %s closed without an end event", id)
	}
	return nil
}

// doJSON performs one request, reads the whole body and decodes it
// strictly into out. want (if non-zero) is the required status code.
// It returns the body size and the status code.
func doJSON(ctx context.Context, client *http.Client, base, method, path string, body []byte, want int, out any) (int, int, error) {
	b, code, err := request(ctx, client, base, method, path, body)
	if err != nil {
		return len(b), code, err
	}
	if want != 0 && code != want {
		return len(b), code, fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(b))
	}
	if err := decodeStrict(b, out); err != nil {
		return len(b), code, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return len(b), code, nil
}

// fetch performs one request and returns its whole body, failing on any
// status but want.
func fetch(ctx context.Context, client *http.Client, base, method, path string, body []byte, want int) ([]byte, error) {
	b, code, err := request(ctx, client, base, method, path, body)
	if err == nil && code != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(b))
	}
	return b, err
}

// request sends one request and reads the whole response body.
func request(ctx context.Context, client *http.Client, base, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return b, resp.StatusCode, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return b, resp.StatusCode, nil
}

// decodeStrict unmarshals one JSON value rejecting unknown fields and
// trailing data.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

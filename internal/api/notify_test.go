package api

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dufp"
)

// TestSubscribersRaceCompletions stresses the subscriber plumbing the
// way a busy daemon does: several dispatchers completing one campaign's
// runs at once — served from a warm memo, so completions land almost
// together — while SSE-style subscribers to the campaign and its member
// runs cancel at random. Every send and close of a subscriber channel
// must be serialised with the others; a send on a channel a concurrent
// completion or cancel already closed panics. Run it under -race.
func TestSubscribersRaceCompletions(t *testing.T) {
	exe := dufp.NewExecutor(dufp.ExecWorkers(4))
	defer exe.Close()
	cfg := testConfig()
	cfg.Executor = exe
	cfg.Workers = 8
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const runs = 4
	tolerances := []float64{0.05, 0.10, 0.15, 0.20}
	// Warm the executor's memo with half the rounds' runs so those
	// campaigns complete in a burst; the other rounds simulate cold.
	session := dufp.NewSession().OnExecutor(exe)
	for _, tol := range tolerances[:len(tolerances)/2] {
		c := dufp.DefaultControlConfig(tol)
		reqs := []dufp.SummaryRequest{
			{App: mustApp(t, "EP"), Governor: dufp.Baseline()},
			{App: mustApp(t, "EP"), Governor: dufp.DUF(c)},
			{App: mustApp(t, "EP"), Governor: dufp.DUFP(c)},
		}
		for _, o := range session.SummarizeAll(context.Background(), reqs, runs) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	for round, tol := range tolerances {
		status, err := d.SubmitCampaign(CampaignSpec{
			V:          dufp.WireVersion,
			Kind:       KindGrid,
			Apps:       []string{"EP"},
			Tolerances: []float64{tol},
			Runs:       runs,
		})
		if err != nil {
			t.Fatal(err)
		}
		detail, ok := d.CampaignStatus(status.ID)
		if !ok {
			t.Fatalf("round %d: campaign %s unknown", round, status.ID)
		}

		var wg sync.WaitGroup
		for s := 0; s < 24; s++ {
			budget := rng.Intn(4)
			delay := time.Duration(rng.Intn(2000)) * time.Microsecond
			runID := detail.RunIDs[rng.Intn(len(detail.RunIDs))]
			wg.Add(2)
			go func() {
				defer wg.Done()
				ch, cancel, ok := d.SubscribeCampaign(status.ID)
				if !ok {
					t.Errorf("campaign %s unknown", status.ID)
					return
				}
				drainThenCancel(t, ch, cancel, budget, delay)
			}()
			go func() {
				defer wg.Done()
				ch, cancel, ok := d.SubscribeRun(runID)
				if !ok {
					t.Errorf("run %s unknown", runID)
					return
				}
				drainThenCancel(t, ch, cancel, budget, delay)
			}()
		}
		wg.Wait()

		final := waitCampaign(t, d, status.ID)
		if final.State != StateDone || final.Done != status.Total || final.Failed != 0 {
			t.Fatalf("round %d: final = %+v", round, final)
		}
	}
}

// drainThenCancel reads up to budget snapshots (or until the channel
// closes), waits delay, cancels, and then requires the channel to be
// closed — by the cancel or by the terminal notification — with at most
// buffered snapshots left.
func drainThenCancel[T any](t *testing.T, ch <-chan T, cancel func(), budget int, delay time.Duration) {
	for i := 0; i < budget; i++ {
		if _, open := <-ch; !open {
			break
		}
	}
	time.Sleep(delay)
	cancel()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, open := <-ch:
			if !open {
				return
			}
		case <-deadline:
			t.Error("subscription still open after cancel")
			return
		}
	}
}

// waitCampaign follows a campaign to its terminal snapshot.
func waitCampaign(t *testing.T, d *Daemon, id string) CampaignStatus {
	t.Helper()
	ch, cancel, ok := d.SubscribeCampaign(id)
	if !ok {
		t.Fatalf("campaign %s unknown", id)
	}
	defer cancel()
	deadline := time.After(300 * time.Second)
	var last CampaignStatus
	for {
		select {
		case s, open := <-ch:
			if !open {
				return last
			}
			last = s
		case <-deadline:
			t.Fatalf("campaign %s stuck: %+v", id, last)
		}
	}
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"dufp"
	"dufp/internal/experiment"
)

// Seeded generators of the workloads' inputs. The same seed gives the
// same specs; the program under test only ever sees the generated
// values.

// paperRuns is experiment.DefaultOptions' repetition count.
const paperRuns = 10

// seededSession is the session of both cold workloads: the paper's
// configuration with the base seed drawn from --seed.
func seededSession(seed int64) dufp.Session { return dufp.NewSession(dufp.WithSeed(seed)) }

// paperSpecs lists the runs of experiment.RunGrid with default options
// in its own batch order: per application the baseline cell, then DUF and DUFP per
// tolerance, each with run indices 0..paperRuns-1.
func paperSpecs() []dufp.RunSpec {
	opts := experiment.DefaultOptions()
	var specs []dufp.RunSpec
	for _, app := range dufp.Suite() {
		govs := []dufp.Governor{dufp.Baseline()}
		for _, tol := range opts.Tolerances {
			cfg := dufp.DefaultControlConfig(tol)
			govs = append(govs, dufp.DUF(cfg), dufp.DUFP(cfg))
		}
		for _, g := range govs {
			for i := 0; i < opts.Runs; i++ {
				specs = append(specs, dufp.RunSpec{App: app, Governor: g, Idx: i})
			}
		}
	}
	return specs
}

// fleetSize is the number of distinct runs in one fleet-cold batch.
const fleetSize = 2000

// fleetSpecs builds n distinct short synthetic DUFP runs: intensity
// class, duration (0.8-1.2 simulated s) and tolerance (1-25 %) are drawn
// from the seed, and each run gets its own application name so no two
// share a content address.
func fleetSpecs(seed int64, n int) ([]dufp.RunSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	classes := []string{"compute", "memory", "balanced"}
	specs := make([]dufp.RunSpec, n)
	for i := range specs {
		app, err := dufp.SteadyApp(dufp.SteadyConfig{
			Name:     fmt.Sprintf("fleet-%d-%04d", seed, i),
			OIClass:  classes[rng.Intn(len(classes))],
			Duration: 800*time.Millisecond + time.Duration(rng.Intn(401))*time.Millisecond,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet spec %d: %w", i, err)
		}
		tol := float64(1+rng.Intn(25)) / 100
		specs[i] = dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(tol))}
	}
	return specs, nil
}

// summaryRequests turns one-run specs into a SummarizeAll batch (n=1).
func summaryRequests(specs []dufp.RunSpec) []dufp.SummaryRequest {
	reqs := make([]dufp.SummaryRequest, len(specs))
	for i, s := range specs {
		reqs[i] = dufp.SummaryRequest{App: s.App, Governor: s.Governor}
	}
	return reqs
}

package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"dufp"
)

// Output checks shared by the workloads. Nothing here is timed.

// runDigest hashes the canonical wire JSON of every run, in order. The
// wire encoding writes floats in shortest round-trip form, so equal
// digests mean bit-identical runs.
func runDigest(runs []dufp.Run) (string, error) {
	h := sha256.New()
	for i, r := range runs {
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("encoding run %d: %w", i, err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// recordedDigests holds, per cold workload and seed, the digest of
// every run of one batch, recorded with the benchmark by
// `perfbench --record-digests`.
//
//go:embed digests.json
var recordedDigestsJSON []byte

func recordedDigest(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// recordSeeds is how many seeds (1..recordSeeds) --record-digests pins.
const recordSeeds = 20

// recordDigests computes the batch digest of both cold workloads for
// seeds 1..recordSeeds and writes them to path.
func recordDigests(ctx context.Context, path string) error {
	all := map[string]map[string]string{}
	for _, w := range coldWorkloads() {
		all[w.name] = map[string]string{}
		for seed := int64(1); seed <= recordSeeds; seed++ {
			specs, err := w.specs(seed)
			if err != nil {
				return err
			}
			exe := dufp.NewExecutor()
			session := seededSession(seed).OnExecutor(exe)
			_, failed, err := w.batch(ctx, seed, session, specs)
			if err == nil && failed > 0 {
				err = fmt.Errorf("%s seed %d: %d runs failed", w.name, seed, failed)
			}
			if err != nil {
				exe.Close()
				return err
			}
			runs, err := collectRuns(ctx, session, specs)
			exe.Close()
			if err != nil {
				return err
			}
			d, err := runDigest(runs)
			if err != nil {
				return err
			}
			all[w.name][strconv.FormatInt(seed, 10)] = d
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, d)
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// collectRuns fetches the run of every spec through the session. After
// a batch on the same executor every call is a memo-cache hit.
func collectRuns(ctx context.Context, session dufp.Session, specs []dufp.RunSpec) ([]dufp.Run, error) {
	runs := make([]dufp.Run, len(specs))
	for i, spec := range specs {
		res, err := session.Run(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("fetching run %d: %w", i, err)
		}
		runs[i] = res.Run
	}
	return runs, nil
}

// sampleIndices draws k distinct indices below n from the seed.
func sampleIndices(seed int64, n, k int) []int {
	if k > n {
		k = n
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:k]
}

// exactMismatches re-executes the sampled specs under the simulator's
// pinned reference loop (ExactPhysics) on a fresh executor and counts
// runs that are not bit-identical to the measured ones.
func exactMismatches(ctx context.Context, session dufp.Session, specs []dufp.RunSpec, runs []dufp.Run, idx []int) (int, error) {
	exe := dufp.NewExecutor()
	defer exe.Close()
	exact := session.OnExecutor(exe)
	exact.ExactPhysics = true
	bad := 0
	for _, i := range idx {
		res, err := exact.Run(ctx, specs[i])
		if err != nil {
			return 0, fmt.Errorf("exact re-run of %s: %w", specs[i].App.Name, err)
		}
		if res.Run != runs[i] {
			bad++
		}
	}
	return bad, nil
}

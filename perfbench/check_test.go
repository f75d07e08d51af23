package main

import (
	"context"
	"testing"

	"dufp"
)

// fleetDigest runs specs as one fleet batch on a fresh executor and
// digests every run.
func fleetDigest(t *testing.T, seed int64, specs []dufp.RunSpec) (string, []dufp.Run) {
	t.Helper()
	ctx := context.Background()
	exe := dufp.NewExecutor()
	defer exe.Close()
	session := seededSession(seed).OnExecutor(exe)
	if _, failed, err := fleetBatch(ctx, seed, session, specs); err != nil || failed > 0 {
		t.Fatalf("fleet batch: %d failed, %v", failed, err)
	}
	runs, err := collectRuns(ctx, session, specs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := runDigest(runs)
	if err != nil {
		t.Fatal(err)
	}
	return d, runs
}

func TestDigestIsStableAcrossRuns(t *testing.T) {
	specs, err := fleetSpecs(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	a, runs := fleetDigest(t, 5, specs)
	b, _ := fleetDigest(t, 5, specs)
	if a != b {
		t.Fatalf("two runs of the same batch digest differently: %s vs %s", a, b)
	}
	runs[17].PkgEnergy += 1e-9
	c, err := runDigest(runs)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("a changed run leaves the digest unchanged")
	}
}

func TestRecordedFleetDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full fleet batch")
	}
	want, ok := recordedDigest("fleet-cold", 1)
	if !ok {
		t.Fatal("no digest recorded for fleet-cold seed 1")
	}
	specs, err := fleetSpecs(1, fleetSize)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := fleetDigest(t, 1, specs); got != want {
		t.Fatalf("fleet-cold seed 1 digests to %s, recorded %s", got, want)
	}
}

func TestExactReferenceAgreesOnSample(t *testing.T) {
	specs, err := fleetSpecs(9, 30)
	if err != nil {
		t.Fatal(err)
	}
	_, runs := fleetDigest(t, 9, specs)
	bad, err := exactMismatches(context.Background(), seededSession(9), specs, runs, sampleIndices(9, len(specs), 5))
	if err != nil || bad != 0 {
		t.Fatalf("%d of 5 runs differ under the reference loop: %v", bad, err)
	}
	runs[sampleIndices(9, len(specs), 1)[0]].Time++
	if bad, _ := exactMismatches(context.Background(), seededSession(9), specs, runs, sampleIndices(9, len(specs), 5)); bad != 1 {
		t.Fatalf("a corrupted run went unnoticed: %d mismatches", bad)
	}
}

package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dufp"
)

func runIDs(t *testing.T, session dufp.Session, specs []dufp.RunSpec) []string {
	t.Helper()
	ids := make([]string, len(specs))
	seen := map[string]bool{}
	for i, s := range specs {
		ids[i] = session.RunID(s)
		if seen[ids[i]] {
			t.Fatalf("spec %d repeats run %s", i, ids[i])
		}
		seen[ids[i]] = true
	}
	return ids
}

func TestPaperSpecsAreTheDistinctProtocolGrid(t *testing.T) {
	specs := paperSpecs()
	if len(specs) != 900 {
		t.Fatalf("%d paper specs, want 900", len(specs))
	}
	runIDs(t, seededSession(1), specs)
}

func TestFleetSpecsAreDeterministic(t *testing.T) {
	a, err := fleetSpecs(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleetSpecs(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fleetSpecs(8, 300)
	if err != nil {
		t.Fatal(err)
	}
	ia := runIDs(t, seededSession(7), a)
	if ib := runIDs(t, seededSession(7), b); !reflect.DeepEqual(ia, ib) {
		t.Error("the same seed built different fleets")
	}
	if ic := runIDs(t, seededSession(7), c); reflect.DeepEqual(ia, ic) {
		t.Error("different seeds built the same fleet")
	}
}

func testCorpus() *corpus {
	c := &corpus{session: dufp.NewSession(), taken: map[string]bool{}}
	app, _ := dufp.AppByName("CG")
	for i := 0; i < 10; i++ {
		c.prior = append(c.prior, dufp.RunSpec{App: app, Governor: dufp.Baseline(), Idx: i})
		c.priorIDs = append(c.priorIDs, fmt.Sprintf("p%d", i))
		c.tracked = append(c.tracked, fmt.Sprintf("t%d", i))
	}
	c.campaigns = []string{"c1", "c2"}
	return c
}

func TestMixPlanIsDeterministic(t *testing.T) {
	c := testCorpus()
	a, err := planMix(3, c, 100, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planMix(3, c, 100, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed planned different mixes")
	}
	other, err := planMix(4, c, 100, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.reads, other.reads) {
		t.Error("different seeds planned the same reads")
	}
	if len(a.reads) != 1000 || len(a.campaigns) != 80 {
		t.Errorf("planned %d reads and %d campaigns, want exactly 1000 and 80", len(a.reads), len(a.campaigns))
	}
	ids := map[string]bool{}
	perApp := map[string]int{}
	for i, op := range a.campaigns {
		if ids[op.id] {
			t.Errorf("campaign %s planned twice", op.id)
		}
		ids[op.id] = true
		perApp[op.spec.Apps[0]]++
		if i > 0 && op.due <= a.campaigns[i-1].due {
			t.Errorf("campaign %d is not after campaign %d", i, i-1)
		}
	}
	for app, n := range perApp {
		if n != 8 {
			t.Errorf("%s drew %d campaigns, want every application 8 times", app, n)
		}
	}
	for i, op := range a.reads {
		if i > 0 && op.due < a.reads[i-1].due {
			t.Fatalf("read %d is due before read %d", i, i-1)
		}
	}
}

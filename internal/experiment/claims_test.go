package experiment

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// claimsPath is the committed record of the paper's conclusions under the
// full default protocol, as `dufpbench -fig claims` prints them.
const claimsPath = "../../reports/claims.json"

// claimsRecord is the on-disk shape of reports/claims.json: the protocol
// the verdicts were measured under, then one entry per Claims row.
type claimsRecord struct {
	Protocol claimsProtocol `json:"protocol"`
	Claims   []claimEntry   `json:"claims"`
}

type claimsProtocol struct {
	Apps       []string  `json:"apps"` // empty: the full suite
	Tolerances []float64 `json:"tolerances"`
	Runs       int       `json:"runs"`
	Seed       int64     `json:"seed"`
}

type claimEntry struct {
	Claim    string `json:"claim"`
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
	Verdict  string `json:"verdict"`
}

// TestClaimsGate regenerates the Claims table over the paper's full
// protocol and fails when any verdict differs from reports/claims.json:
// a change that flips one of the paper's conclusions — a physics edit, a
// new noise stream, a controller tweak — must show up here rather than
// pass as "HOLDS or DIVERGES". A measured figure that drifts without
// flipping its verdict is only logged. When a flip is intended, replace
// the file with the record the failure prints.
func TestClaimsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-protocol campaign in -short mode")
	}
	raw, err := os.ReadFile(claimsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want claimsRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", claimsPath, err)
	}

	opts := DefaultOptions()
	got := claimsRecord{Protocol: claimsProtocol{
		Apps:       opts.Apps,
		Tolerances: opts.Tolerances,
		Runs:       opts.Runs,
		Seed:       opts.Session.Seed,
	}}
	if !reflect.DeepEqual(got.Protocol, want.Protocol) {
		t.Fatalf("%s records protocol %+v, but the default protocol is %+v", claimsPath, want.Protocol, got.Protocol)
	}
	g, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Claims(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		got.Claims = append(got.Claims, claimEntry{Claim: row[0], Paper: row[1], Measured: row[2], Verdict: row[3]})
	}

	flipped := len(got.Claims) != len(want.Claims)
	for i := 0; !flipped && i < len(want.Claims); i++ {
		g, w := got.Claims[i], want.Claims[i]
		switch {
		case g.Claim != w.Claim || g.Verdict != w.Verdict:
			t.Errorf("claim %d: %q %s (measured %s), recorded %q %s (measured %s)",
				i, g.Claim, g.Verdict, g.Measured, w.Claim, w.Verdict, w.Measured)
			flipped = true
		case g.Measured != w.Measured:
			t.Logf("claim %q still %s, measured %s (recorded %s)", g.Claim, g.Verdict, g.Measured, w.Measured)
		}
	}
	if flipped {
		var out strings.Builder
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("claims verdicts changed; if intended, write this to reports/claims.json:\n%s", out.String())
	}
}

package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/oracle.json from the current code")

// TestExperimentsOracle pins the paper-figure replay path (Mistral with
// the 300 µs per-child search cost) at fault rates 0 and 0.15: the
// SHA-256 of each 1-hour replay's scenario.Result as JSON, wall-clock
// decide samples excluded. Regenerate with -update only when behaviour is
// meant to move.
func TestExperimentsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 2 recipes")
	}
	got := map[string]string{}
	for _, rate := range []float64{0, 0.15} {
		_, res, err := runRecipe(Recipe{
			Strategy:  "mistral",
			Workers:   1,
			Lab:       LabOptions{NumApps: 2, Seed: 42},
			FaultRate: rate,
		}, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		res.DecideWall = nil
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("mistral/fault=%g", rate)] = fmt.Sprintf("%x", sha256.Sum256(raw))
	}
	golden := filepath.Join("testdata", "oracle.json")
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("oracle has %d cells, test has %d", len(want), len(got))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: digest moved: got %s, want %s", k, g, want[k])
		}
	}
}

package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/mistralcloud/mistral/internal/core"
)

// idealDigest renders an Ideal bit for bit: the configuration fingerprint,
// every active VM's host and CPU bits, every active host's frequency bits,
// and the steady net rate's bits.
func idealDigest(id core.Ideal) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fp=%s net=%016x", id.Config.Fingerprint(), math.Float64bits(id.Steady.NetRate()))
	for _, vm := range id.Config.ActiveVMs() {
		p, _ := id.Config.PlacementOf(vm)
		fmt.Fprintf(&b, " %s@%s:%016x", vm, p.Host, math.Float64bits(p.CPUPct))
	}
	for _, h := range id.Config.ActiveHosts() {
		fmt.Fprintf(&b, " %s~%016x", h, math.Float64bits(id.Config.HostFreq(h)))
	}
	return b.String()
}

// perfPwrOracleCase is one Perf-Pwr entry point on one lab.
type perfPwrOracleCase struct {
	name string
	lab  LabOptions
	run  func(lab *Lab, e *core.Evaluator, rates map[string]float64, workers int) (core.Ideal, error)
}

func perfPwrOracleCases() []perfPwrOracleCase {
	two := LabOptions{NumApps: 2, Seed: 42}
	return []perfPwrOracleCase{
		{"full", two, func(_ *Lab, e *core.Evaluator, r map[string]float64, w int) (core.Ideal, error) {
			return core.PerfPwr(e, r, core.PerfPwrOptions{Workers: w})
		}},
		{"app-pools", two, func(_ *Lab, e *core.Evaluator, r map[string]float64, w int) (core.Ideal, error) {
			pools := map[string][]string{"rubis1": {"h0", "h1"}, "rubis2": {"h2", "h3"}}
			return core.PerfPwr(e, r, core.PerfPwrOptions{AppHostPools: pools, Workers: w})
		}},
		{"zone-pins", LabOptions{NumApps: 2, Seed: 42, Zones: 2}, func(lab *Lab, e *core.Evaluator, r map[string]float64, w int) (core.Ideal, error) {
			pins := core.VMZonePinsOf(lab.Cat, lab.Initial)
			return core.PerfPwr(e, r, core.PerfPwrOptions{VMZonePins: pins, Workers: w})
		}},
		{"dvfs", LabOptions{NumApps: 2, Seed: 42, DVFSLevels: []float64{0.6, 0.8}}, func(_ *Lab, e *core.Evaluator, r map[string]float64, w int) (core.Ideal, error) {
			return core.PerfPwr(e, r, core.PerfPwrOptions{Workers: w})
		}},
		{"subset", two, func(lab *Lab, e *core.Evaluator, r map[string]float64, w int) (core.Ideal, error) {
			// Second replicas inside and outside the subset: the replica
			// outside is held fixed but still splits its tier's demand.
			base := lab.Initial.Clone()
			base.Place("rubis1-app-1", "h3", 40)
			base.Place("rubis2-web-1", "h1", 30)
			return core.PerfPwrSubset(e, base, r, []string{"h0", "h1"}, w)
		}},
		{"meeting-targets", two, func(_ *Lab, e *core.Evaluator, r map[string]float64, _ int) (core.Ideal, error) {
			return core.PerfPwrMeetingTargets(e, r)
		}},
	}
}

// perfPwrOracleRates are the workload vectors every case is solved at:
// quiet, moderate, skewed, near the hosts' capacity, and past what meets the
// response-time targets.
var perfPwrOracleRates = []map[string]float64{
	{"rubis1": 10, "rubis2": 15},
	{"rubis1": 25, "rubis2": 45},
	{"rubis1": 35, "rubis2": 80},
	{"rubis1": 90, "rubis2": 60},
	{"rubis1": 130, "rubis2": 120},
}

// TestPerfPwrIdealOracle pins the ideal configuration every Perf-Pwr entry
// point returns — full scope, per-app host pools, zone pins on a two-zone
// lab, DVFS, the 1st-level subset and the target-meeting variant — over a
// few rate vectors at workers 1 and 2. These reach the reduction loop's and
// bin packer's pool, pin and no-affinity branches that the replay oracles
// never do. Regenerate with -update only when behaviour is meant to move.
func TestPerfPwrIdealOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 60 Perf-Pwr ideals")
	}
	got := map[string]string{}
	for _, c := range perfPwrOracleCases() {
		lab, err := NewLab(c.lab)
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for _, workers := range []int{1, 2} {
			e, err := lab.NewEvaluator()
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for i, r := range perfPwrOracleRates {
				ideal, err := c.run(lab, e, r, workers)
				line := fmt.Sprintf("rates%d: ", i)
				if err != nil {
					line += "error: " + err.Error()
				} else {
					line += idealDigest(ideal)
				}
				lines = append(lines, line)
			}
			joined := strings.Join(lines, "\n")
			if workers == 1 {
				first = joined
			} else if joined != first {
				t.Errorf("%s: workers 2 ideals differ from workers 1:\n%s\nvs\n%s", c.name, joined, first)
			}
		}
		got[c.name] = fmt.Sprintf("%x", sha256.Sum256([]byte(first)))
	}
	golden := filepath.Join("testdata", "perfpwr_oracle.json")
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(want) != len(got) {
		t.Fatalf("oracle has %d cases, test has %d", len(want), len(got))
	}
	for _, k := range names {
		if want[k] != got[k] {
			t.Errorf("%s: ideal digest moved: got %s, want %s", k, got[k], want[k])
		}
	}
}

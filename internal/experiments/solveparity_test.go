package experiments

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
)

// TestWorkersSolveParity replays a short 2-app Mistral recipe at workers 1
// and 2, each with its own metrics registry, and requires the same LQN
// solve, expansion and generated-child counts. Solves count successful,
// singleflighted cache misses only, so the counts are deterministic: any
// difference is work the parallel path does that the serial path does
// not, such as speculative solves of vertices that are never popped.
func TestWorkersSolveParity(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 2 recipes")
	}
	counters := []string{"lqn_solves_total", "search_expansions_total", "search_generated_total"}
	var runs [2]map[string]int64
	for i, workers := range []int{1, 2} {
		reg := obs.NewRegistry()
		o := &obs.Observer{Metrics: reg}
		obs.SetDefault(o)
		env, err := Build(Recipe{Strategy: "mistral", Workers: workers, Lab: LabOptions{NumApps: 2, Seed: 42}},
			paperSearch, Attach{Obs: o, Duration: 90 * time.Minute})
		if err != nil {
			obs.SetDefault(nil)
			t.Fatal(err)
		}
		_, err = env.Run()
		obs.SetDefault(nil)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = map[string]int64{}
		for _, c := range counters {
			runs[i][c] = reg.CounterValue(c)
		}
	}
	if runs[0]["lqn_solves_total"] == 0 || runs[0]["search_expansions_total"] == 0 {
		t.Fatalf("workers 1 recorded no work: %v", runs[0])
	}
	for _, c := range counters {
		if runs[0][c] != runs[1][c] {
			t.Errorf("%s: workers 1 = %d, workers 2 = %d", c, runs[0][c], runs[1][c])
		}
	}
}

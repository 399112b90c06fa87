// Command mistral-trace inspects the synthesized workload traces: ASCII
// sparkline plots of each application's request rate over the scenario
// day, the stability-interval series a given workload band produces, and
// the ARMA estimator's predictions against it — a quick way to see what
// the controllers will face before running a replay.
//
// Usage:
//
//	mistral-trace [-apps N] [-seed N] [-band 8] [-step 2m] [-width 130]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/mistralcloud/mistral"
	"github.com/mistralcloud/mistral/internal/predict"
	"github.com/mistralcloud/mistral/internal/stats"
	"github.com/mistralcloud/mistral/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mistral-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		numApps = flag.Int("apps", 4, "number of applications (1-4)")
		seed    = flag.Uint64("seed", 42, "random seed")
		band    = flag.Float64("band", 8, "workload band width (req/s) for the stability analysis")
		step    = flag.Duration("step", 2*time.Minute, "stability sampling step (the monitoring interval)")
		width   = flag.Int("width", 130, "plot width in characters")
	)
	flag.Parse()

	names := make([]string, 0, *numApps)
	for i := 0; i < *numApps && i < 4; i++ {
		names = append(names, fmt.Sprintf("rubis%d", i+1))
	}
	set := mistral.PaperWorkloads(*seed, names)

	fmt.Printf("Workloads %s–%s (seed %d), 0–100 req/s per application:\n\n",
		workload.Clock(0), workload.Clock(workload.ScenarioDuration), *seed)
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Strings(sorted)
	for _, n := range sorted {
		tr := set[n]
		peak, at := 0.0, time.Duration(0)
		for t := time.Duration(0); t <= tr.Duration(); t += time.Minute {
			if r := tr.RateAt(t); r > peak {
				peak, at = r, t
			}
		}
		fmt.Printf("%-8s │%s│\n", n, stats.Sparkline(tr.Rates, *width))
		fmt.Printf("         mean %5.1f req/s   peak %5.1f req/s at %s\n\n",
			tr.MeanRate(), peak, workload.Clock(at))
	}

	fmt.Printf("Stability intervals (band ±%.1f/2 req/s, sampled every %s):\n\n", *band, *step)
	for _, n := range sorted {
		ivs := workload.StabilityIntervals(set[n], *band, *step)
		if len(ivs) == 0 {
			continue
		}
		vals := make([]float64, len(ivs))
		var minIv, maxIv, sum time.Duration
		minIv = ivs[0]
		for i, iv := range ivs {
			vals[i] = iv.Seconds()
			sum += iv
			minIv = min(minIv, iv)
			maxIv = max(maxIv, iv)
		}
		est := predict.NewEstimator(0, 0, ivs[0])
		preds := predict.Replay(est, ivs)
		var absErr, mag float64
		for i := 1; i < len(ivs); i++ {
			d := preds[i].Seconds() - ivs[i].Seconds()
			if d < 0 {
				d = -d
			}
			absErr += d
			mag += ivs[i].Seconds()
		}
		errPct := 0.0
		if mag > 0 {
			errPct = absErr / mag * 100
		}
		fmt.Printf("%-8s │%s│\n", n, stats.Sparkline(vals, *width))
		fmt.Printf("         %d intervals   min %s   mean %s   max %s   ARMA error %.0f%%\n\n",
			len(ivs), minIv, (sum / time.Duration(len(ivs))).Round(time.Second), maxIv, errPct)
	}
	fmt.Println("Short intervals mean the band breaks every monitoring window (ramps and flash")
	fmt.Println("crowds): only quick actions pay off there. Long intervals are where migrations")
	fmt.Println("and host power cycling recoup their transient costs (Eq. 3).")
	return nil
}

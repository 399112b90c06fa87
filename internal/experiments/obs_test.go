package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
)

// planRecorder wraps a decider and fingerprints every decision it makes.
type planRecorder struct {
	scenario.Decider
	log []string
}

func (p *planRecorder) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (scenario.Decision, error) {
	d, err := p.Decider.Decide(now, cfg, rates)
	if err == nil {
		p.log = append(p.log, fmt.Sprintf("%v st=%v cost=%.9f plan=%v", now, d.SearchTime, d.SearchCost, d.Plan))
	}
	return d, err
}

// runMistralRecorded replays a trimmed 1-app scenario under Mistral with
// the given process-default observer installed, returning the result and
// the decision fingerprints.
func runMistralRecorded(t *testing.T, o *obs.Observer) (*scenario.Result, []string) {
	t.Helper()
	obs.SetDefault(o)
	defer obs.SetDefault(nil)
	lab, err := NewLab(LabOptions{NumApps: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := lab.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := lab.NewDecider("mistral", strategy.MistralConfig{Search: paperSearch})
	if err != nil {
		t.Fatal(err)
	}
	rec := &planRecorder{Decider: d}
	res, err := scenario.Run(tb, rec, scenario.RunConfig{
		Traces:   lab.Traces,
		Duration: 90 * time.Minute,
		Interval: lab.Util.MonitoringInterval,
		Utility:  lab.Util,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.log
}

// TestTracingIsDeterministic replays the seeded 2-host scenario with
// observability fully disabled and fully enabled (metrics + JSONL spans +
// debug logging) and requires byte-identical decision plans and results:
// instrumentation must never perturb control behaviour.
func TestTracingIsDeterministic(t *testing.T) {
	baseRes, basePlans := runMistralRecorded(t, nil)

	var trace bytes.Buffer
	full := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(&trace, obs.FormatJSONL),
		Log:     slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})),
	}
	obsRes, obsPlans := runMistralRecorded(t, full)
	if err := full.Trace.Close(); err != nil {
		t.Fatal(err)
	}

	if a, b := strings.Join(basePlans, "\n"), strings.Join(obsPlans, "\n"); a != b {
		t.Fatalf("plans diverge with tracing enabled:\n--- disabled ---\n%s\n--- enabled ---\n%s", a, b)
	}
	if baseRes.CumUtility != obsRes.CumUtility {
		t.Errorf("cumulative utility diverged: %v vs %v", baseRes.CumUtility, obsRes.CumUtility)
	}
	if baseRes.TotalActions != obsRes.TotalActions {
		t.Errorf("action count diverged: %d vs %d", baseRes.TotalActions, obsRes.TotalActions)
	}

	// The metrics registry must have seen the run.
	if got := full.Metrics.CounterValue("scenario_windows_total"); got != int64(len(obsRes.Windows)) {
		t.Errorf("scenario_windows_total = %d, want %d", got, len(obsRes.Windows))
	}
	if full.Metrics.CounterValue("search_invocations_total") == 0 {
		t.Error("search_invocations_total = 0, want > 0")
	}

	// Span nesting: every perfpwr/search/action:* span must parent (via
	// its chain) to a "decide" root — the Decide → PerfPwr → Search →
	// Action hierarchy of the trace design.
	type rec struct {
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		VStart int64  `json:"v_start_us"`
		VEnd   int64  `json:"v_end_us"`
	}
	byID := map[uint64]rec{}
	var spans []rec
	sc := bufio.NewScanner(&trace)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("invalid JSONL span %q: %v", sc.Text(), err)
		}
		byID[r.ID] = r
		spans = append(spans, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	rootOf := func(r rec) rec {
		for r.Parent != 0 {
			r = byID[r.Parent]
		}
		return r
	}
	counts := map[string]int{}
	for _, r := range spans {
		switch {
		case r.Name == "decide":
			counts["decide"]++
			if r.Parent != 0 {
				t.Errorf("decide span %d has parent %d, want root", r.ID, r.Parent)
			}
		case r.Name == "perfpwr" || r.Name == "search" || strings.HasPrefix(r.Name, "action:"):
			counts[strings.SplitN(r.Name, ":", 2)[0]]++
			if root := rootOf(r); root.Name != "decide" {
				t.Errorf("%s span %d roots at %q, want decide", r.Name, r.ID, root.Name)
			}
			if r.VEnd < r.VStart {
				t.Errorf("%s span %d ends (%d) before it starts (%d)", r.Name, r.ID, r.VEnd, r.VStart)
			}
		}
	}
	for _, kind := range []string{"decide", "perfpwr", "search"} {
		if counts[kind] == 0 {
			t.Errorf("no %q spans in trace (counts %v)", kind, counts)
		}
	}
	if obsRes.TotalActions > 0 && counts["action"] == 0 {
		t.Errorf("plan executed %d actions but trace has no action spans", obsRes.TotalActions)
	}
}

package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/stats"
)

// BenchResult is the machine-readable search-performance snapshot emitted
// by `mistral-exp -run bench` (and, for whole replays, by
// `mistral-sim -bench-json`). The committed BENCH_search.json at the repo
// root is one of these, and the CI benchmark leg compares a fresh run's
// work counters and NsPerExpansion against it. Wall-clock figures are
// machine-dependent; Expansions, Generated, and CacheHitPct are
// deterministic for a seed, and CompareBaseline holds the first two to the
// baseline exactly.
type BenchResult struct {
	// Fixture provenance.
	Seed      uint64 `json:"seed"`
	Apps      int    `json:"apps"`
	Hosts     int    `json:"hosts"`
	Windows   int    `json:"windows"`
	Workers   int    `json:"workers"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`

	// Deterministic work counters.
	Expansions int `json:"expansions"`
	Generated  int `json:"generated"`

	// Wall-clock performance (decide path only: ideal + search).
	WallSec            float64 `json:"wall_sec"`
	ExpansionsPerSec   float64 `json:"expansions_per_sec"`
	NsPerExpansion     float64 `json:"ns_per_expansion"`
	AllocsPerExpansion float64 `json:"allocs_per_expansion"`
	BytesPerExpansion  float64 `json:"bytes_per_expansion"`
	CacheHitPct        float64 `json:"cache_hit_pct"`
	DecideP50Ms        float64 `json:"decide_p50_ms"`
	DecideP99Ms        float64 `json:"decide_p99_ms"`
}

// benchCycle is the workload cycle driven through the decide path: each
// window assigns rubis1 the point and rubis2 its mirror (80−point), so
// every window needs a different ideal and a non-trivial plan. Revisited
// points land in the same 0.01 req/s rate band, which is what gives the
// cross-window cache something to reuse — exactly like a diurnal workload
// returning to a familiar operating point.
var benchCycle = []float64{10, 25, 40, 55, 70, 55, 40, 25}

// BenchOptions configures BenchSearch.
type BenchOptions struct {
	// Workers is the search's evaluation concurrency (0 = default).
	Workers int
	// Windows overrides the number of control windows measured (default
	// 64; -quick uses 16).
	Windows int
}

// BenchSearch measures the decide hot path — per-window cache boundary,
// Perf-Pwr ideal, Self-Aware A* search — over a cycle of workload bands,
// always planning from the default configuration. Searching from the same
// distant start every window is the controller's worst case for
// per-expansion allocation (deep frontiers, long plans) and therefore the
// quantity Eq. 3 charges back to utility. It deliberately excludes the
// testbed so the numbers isolate the controller's own cost.
func BenchSearch(seed uint64, opts BenchOptions) (*BenchResult, error) {
	lab, err := NewLab(LabOptions{NumApps: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	eval, err := lab.NewEvaluator()
	if err != nil {
		return nil, err
	}
	searcher := core.NewSearcher(eval, core.SearchOptions{SelfAware: true, Workers: opts.Workers})
	windows := opts.Windows
	if windows <= 0 {
		windows = 64
	}
	cw := 2 * time.Hour // long window: disruptive plans stay worthwhile

	r := &BenchResult{
		Seed:      seed,
		Apps:      lab.Opts.NumApps,
		Hosts:     lab.Opts.NumHosts,
		Windows:   windows,
		Workers:   opts.Workers,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	var hits, misses int
	harvest := func() {
		st := eval.CacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	latsMs := make([]float64, 0, windows)
	var wall time.Duration

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < windows; i++ {
		point := benchCycle[i%len(benchCycle)]
		rates := map[string]float64{"rubis1": point, "rubis2": 80 - point}
		harvest()
		eval.BeginWindow()
		t0 := time.Now()
		ideal, err := core.PerfPwr(eval, rates, core.PerfPwrOptions{})
		if err != nil {
			return nil, fmt.Errorf("bench: window %d ideal: %w", i, err)
		}
		res, err := searcher.Search(lab.Initial, rates, cw, ideal, core.ExpectedUtility{}, cluster.ActionSpace{})
		if err != nil {
			return nil, fmt.Errorf("bench: window %d search: %w", i, err)
		}
		lat := time.Since(t0)
		wall += lat
		latsMs = append(latsMs, float64(lat.Nanoseconds())/1e6)
		r.Expansions += res.Expanded
		r.Generated += res.Generated
	}
	runtime.ReadMemStats(&m1)
	harvest()

	r.WallSec = wall.Seconds()
	if r.Expansions > 0 {
		r.ExpansionsPerSec = float64(r.Expansions) / wall.Seconds()
		r.NsPerExpansion = float64(wall.Nanoseconds()) / float64(r.Expansions)
		r.AllocsPerExpansion = float64(m1.Mallocs-m0.Mallocs) / float64(r.Expansions)
		r.BytesPerExpansion = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(r.Expansions)
	}
	if hits+misses > 0 {
		r.CacheHitPct = 100 * float64(hits) / float64(hits+misses)
	}
	r.DecideP50Ms = stats.Quantile(latsMs, 0.50)
	r.DecideP99Ms = stats.Quantile(latsMs, 0.99)
	return r, nil
}

// WriteJSON writes the result as indented JSON to path.
func (r *BenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareBaseline checks the run against a committed BenchResult JSON.
// The deterministic work counters (Expansions, Generated) must equal the
// baseline's exactly, and NsPerExpansion may not regress by more than
// tolerancePct percent. It returns a human-readable verdict line, or an
// error when either gate trips (or the baseline is unreadable).
func (r *BenchResult) CompareBaseline(path string, tolerancePct float64) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("bench baseline: %w", err)
	}
	var base BenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		return "", fmt.Errorf("bench baseline %s: %w", path, err)
	}
	if base.NsPerExpansion <= 0 {
		return "", fmt.Errorf("bench baseline %s: ns_per_expansion missing", path)
	}
	if r.Expansions != base.Expansions || r.Generated != base.Generated {
		return "", fmt.Errorf("bench counters differ: %d expansions, %d generated vs baseline %d, %d (seed %d, %d windows vs baseline seed %d, %d windows)",
			r.Expansions, r.Generated, base.Expansions, base.Generated, r.Seed, r.Windows, base.Seed, base.Windows)
	}
	counters := fmt.Sprintf("counters match (%d expansions, %d generated)", r.Expansions, r.Generated)
	limit := base.NsPerExpansion * (1 + tolerancePct/100)
	ratio := r.NsPerExpansion / base.NsPerExpansion
	if r.NsPerExpansion > limit {
		return "", fmt.Errorf("bench regression: %.0f ns/expansion vs baseline %.0f (%.2fx, tolerance %+.0f%%); %s",
			r.NsPerExpansion, base.NsPerExpansion, ratio, tolerancePct, counters)
	}
	return fmt.Sprintf("bench ok: %s; %.0f ns/expansion vs baseline %.0f (%.2fx, tolerance %+.0f%%)",
		counters, r.NsPerExpansion, base.NsPerExpansion, ratio, tolerancePct), nil
}

// Table renders the snapshot for the mistral-exp emitter.
func (r *BenchResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Search hot-path benchmark (seed %d, %d windows, %d apps on %d hosts, workers %d, %s %s/%s)",
			r.Seed, r.Windows, r.Apps, r.Hosts, r.Workers, r.GoVersion, r.GOOS, r.GOARCH),
		Header: []string{"metric", "value"},
	}
	row := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	row("expansions", fmt.Sprint(r.Expansions))
	row("generated children", fmt.Sprint(r.Generated))
	row("decide wall", fmt.Sprintf("%.2fs", r.WallSec))
	row("expansions/s", fmt.Sprintf("%.0f", r.ExpansionsPerSec))
	row("ns/expansion", fmt.Sprintf("%.0f", r.NsPerExpansion))
	row("allocs/expansion", fmt.Sprintf("%.0f", r.AllocsPerExpansion))
	row("bytes/expansion", fmt.Sprintf("%.0f", r.BytesPerExpansion))
	row("cache hit %", fmt.Sprintf("%.1f", r.CacheHitPct))
	row("decide p50", fmt.Sprintf("%.1fms", r.DecideP50Ms))
	row("decide p99", fmt.Sprintf("%.1fms", r.DecideP99Ms))
	return t
}

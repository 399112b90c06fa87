package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
)

// silentFrames names, per recipe, the attribution frames that must match
// CPU samples in its traced leg: each has a share of at least a quarter
// of a percent there (tens of samples), so a rename that silences a
// layer's attribution fails the traced run instead of passing unnoticed.
// Perf-Pwr's exported entry shows only where the sweep runs serially:
// par.For workers start their stacks at the sweep's closures.
var silentFrames = map[string][]string{
	"replay-2app": {pkg + "core.sweepHostCounts", pkg + "core.packWithReduction", pkg + "core.polishAllocations",
		pkg + "core.(*Searcher).search", pkg + "lqn.(*Model).Evaluate", "runtime.gcBgMarkWorker"},
	"daemon-2app": {pkg + "core.PerfPwr*", pkg + "core.sweepHostCounts", pkg + "core.packWithReduction",
		pkg + "core.(*Searcher).search", pkg + "lqn.(*Model).Evaluate", pkg + "provenance.*",
		pkg + "core.harvestRejected", "runtime.gcBgMarkWorker"},
	"probe-4app": {pkg + "core.sweepHostCounts", pkg + "core.packWithReduction",
		pkg + "core.(*Searcher).search", pkg + "lqn.(*Model).Evaluate", "runtime.gcBgMarkWorker"},
}

// runtimeSample reads the runtime/metrics the per-window runtime figures
// are computed from.
func runtimeSample() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s
}

func sampleDelta(a, b []metrics.Sample, i int) float64 {
	if a[i].Value.Kind() == metrics.KindUint64 {
		return float64(b[i].Value.Uint64() - a[i].Value.Uint64())
	}
	return b[i].Value.Float64() - a[i].Value.Float64()
}

// layerRun is the traced pass over one recipe: an untraced leg (the
// baseline for the tracing overhead and the runtime figures), a traced
// leg (spans, registry counters, CPU profile) and, for a parallel
// recipe, a serial leg for par.speedup.
type layerRun struct {
	base, traced *leg
	e            *env // the traced leg's environment
	tr           *tracer
	attr         *attribution
	rt0, rt1     []metrics.Sample
	ck           roundTrip
	speedup      float64
	// The workers-1 leg of a parallel recipe: windows per second and
	// allocations per window, beside the base leg's.
	serialWps, serialAllocs float64
}

func traceRecipe(r recipe, seed uint64, t *tally) (*layerRun, error) {
	lr := &layerRun{speedup: 1} // a serial recipe's speedup is 1 by definition
	e, err := r.build(seed, r.workers, nil)
	if err != nil {
		return nil, err
	}
	lr.rt0 = runtimeSample()
	if lr.base, err = t.replay(e, nil); err != nil {
		return nil, err
	}
	lr.rt1 = runtimeSample()

	if lr.e, err = r.build(seed, r.workers, obs.NewRegistry()); err != nil {
		return nil, err
	}
	lr.tr = newTracer(lr.e.ob.Metrics)
	lr.e.setTracer(lr.tr)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	lr.traced, err = t.replay(lr.e, lr.tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if r.daemon {
		if lr.ck, err = lr.e.checkpointRoundTrip(lr.tr); err != nil {
			return nil, err
		}
	}
	if lr.attr, err = attribute(prof.Bytes()); err != nil {
		return nil, err
	}
	for _, l := range layerFrames {
		for _, f := range l.frames {
			fmt.Printf("# %s cpu frame %-60s %.4f\n", r.name, strings.TrimPrefix(f, pkg), float64(lr.attr.frameNs[f])/float64(max(lr.attr.totalNs, 1)))
		}
	}
	for _, f := range silentFrames[r.name] {
		if lr.attr.frameNs[f] == 0 {
			return nil, fmt.Errorf("%s: silent layer: frame %s matched no CPU samples", r.name, f)
		}
	}

	if r.workers > 1 {
		se, err := r.build(seed, 1, nil)
		if err != nil {
			return nil, err
		}
		s0 := runtimeSample()
		sl, err := t.replay(se, nil)
		if err != nil {
			return nil, err
		}
		s1 := runtimeSample()
		par, ser := lr.base.stepWall().Seconds(), sl.stepWall().Seconds()
		lr.speedup = ser / par
		lr.serialWps = float64(len(sl.windows)) / ser
		lr.serialAllocs = sampleDelta(s0, s1, 0) / float64(len(sl.windows))
		fmt.Printf("# %s par.speedup over %d windows: workers %d %.3fs, workers 1 %.3fs\n", r.name, len(sl.windows), r.workers, par, ser)
	}
	return lr, nil
}

func (lr *layerRun) counter(name string) float64 {
	return float64(lr.e.ob.Metrics.CounterValue(name))
}

// evalCounts are the evaluator's lookups, hits, solves and in-flight
// dedups over the traced leg; the last window's are not flushed to the
// registry yet.
func (lr *layerRun) evalCounts() (lookups, hits, solves, dedup float64) {
	st := lr.e.eval.CacheStats()
	hits = lr.counter("eval_cache_hits_total") + float64(st.Hits)
	solves = lr.counter("eval_cache_misses_total") + float64(st.Misses)
	dedup = lr.counter("eval_inflight_dedup_total") + float64(st.Dedups)
	return hits + solves, hits, solves, dedup
}

// decides splits the traced leg's decide wall times by level.
func (lr *layerRun) decides() (all, l1, l2 []time.Duration, decideSum, stepSum time.Duration, busy int) {
	for _, w := range lr.traced.windows {
		stepSum += w.step
		if !w.decided {
			busy++
			continue
		}
		all = append(all, w.decide)
		decideSum += w.decide
		switch w.level {
		case levelL1:
			l1 = append(l1, w.decide)
		case levelL2:
			l2 = append(l2, w.decide)
		}
	}
	return all, l1, l2, decideSum, stepSum, busy
}

// tracedPass reports the per-layer metrics of the workload, and for
// replay-2app also of the 4-app probe and the mistral-sim cross-check.
func tracedPass(o options, t *tally, rep *report) error {
	// The whole trace of the run's seed, so that every layer collects
	// enough CPU samples even where a measured session is shorter.
	whole := o.r
	whole.windows = 0
	lr, err := traceRecipe(whole, o.seed, t)
	if err != nil {
		return err
	}
	if o.stateDir != "" {
		path := filepath.Join(o.stateDir, fmt.Sprintf("spans-%s-%d.jsonl", o.r.name, o.seed))
		if err := lr.tr.writeJSONL(path); err != nil {
			return err
		}
	}
	var p4 *layerRun
	if o.r.name == "replay-2app" {
		if err := crossCheck(o, lr.base); err != nil {
			return err
		}
		if p4, err = traceRecipe(probe4, o.seed, t); err != nil {
			return err
		}
	}

	e, res := lr.e, lr.traced.res
	decides, l1, l2, decideSum, stepSum, busy := lr.decides()
	twn := float64(len(lr.traced.windows))
	nw := float64(len(lr.base.windows))
	s1, s2 := e.dec.Stats()
	lookups, hits, solves, dedup := lr.evalCounts()

	var steps []time.Duration
	for _, w := range lr.traced.windows {
		steps = append(steps, w.step)
	}
	rep.add("scenario.window_ms.p50", ms(quantile(steps, 0.50)), "ms")
	rep.add("scenario.window_ms.p90", ms(quantile(steps, 0.90)), "ms")
	rep.add("scenario.step_self_ms", ms(stepSum-decideSum)/twn, "ms")
	rep.add("scenario.busy_windows", float64(busy), "count")
	rep.add("scenario.degraded_windows", float64(res.DegradedWindows), "count")
	rep.add("scenario.cum_utility_dollars", res.CumUtility, "USD")

	rep.add("strategy.decide_ms.p50", ms(quantile(decides, 0.50)), "ms")
	rep.add("strategy.decide_ms.p90", ms(quantile(decides, 0.90)), "ms")
	rep.add("strategy.decide_l1_ms.p50", ms(quantile(l1, 0.50)), "ms")
	rep.add("strategy.decide_l2_ms.p50", ms(quantile(l2, 0.50)), "ms")
	rep.add("strategy.l1_invocations", float64(s1.Invocations), "count")
	rep.add("strategy.l2_invocations", float64(s2.Invocations), "count")
	rep.add("strategy.decide_share", ratio(decideSum.Seconds(), stepSum.Seconds()), "ratio")

	rep.add("core.perfpwr.cpu_share", lr.attr.share("perfpwr"), "ratio")
	rep.add("core.perfpwr.sweep_arms", lr.counter("perfpwr_sweep_arms_total"), "count")

	exp, gen := lr.counter("search_expansions_total"), lr.counter("search_generated_total")
	rep.add("core.search.cpu_share", lr.attr.share("search"), "ratio")
	rep.add("core.search.invocations", lr.counter("search_invocations_total"), "count")
	rep.add("core.search.expansions", exp, "count")
	rep.add("core.search.generated", gen, "count")
	rep.add("core.search.generated_per_expansion", ratio(gen, exp), "ratio")
	rep.add("core.search.pruned_children", lr.counter("search_pruned_children_total"), "count")
	rep.add("core.search.truncated", lr.counter("search_truncated_total"), "count")

	rep.add("core.eval.evals", lookups, "count")
	rep.add("core.eval.cache_hit_pct", 100*ratio(hits, lookups), "%")
	rep.add("core.eval.inflight_dedup", dedup, "count")

	rep.add("lqn.solves", solves, "count")
	rep.add("lqn.cpu_share", lr.attr.share("lqn"), "ratio")
	rep.add("lqn.us_per_solve", ratio(float64(lr.attr.layerNs["lqn"])/1e3, solves), "us")

	baseWps := nw / lr.base.stepWall().Seconds()
	serialWps, serialAllocs := lr.serialWps, lr.serialAllocs
	if o.r.workers == 1 { // the base leg is the serial one
		serialWps, serialAllocs = baseWps, sampleDelta(lr.rt0, lr.rt1, 0)/nw
	}
	rep.add("par.speedup", lr.speedup, "ratio")
	rep.add("par.workers_n_windows_per_s", baseWps, "windows/s")
	rep.add("par.workers_1_windows_per_s", serialWps, "windows/s")
	rep.add("par.workers_1_allocs_per_window", serialAllocs, "count")

	rep.add("runtime.allocs_per_window", sampleDelta(lr.rt0, lr.rt1, 0)/nw, "count")
	rep.add("runtime.alloc_mb_per_window", sampleDelta(lr.rt0, lr.rt1, 1)/nw/(1<<20), "MB")
	rep.add("runtime.gc_cpu_share", ratio(sampleDelta(lr.rt0, lr.rt1, 2),
		sampleDelta(lr.rt0, lr.rt1, 3)-sampleDelta(lr.rt0, lr.rt1, 4)), "ratio")
	rep.add("runtime.gc_mark_cpu_share", lr.attr.share("gc"), "ratio")
	rep.add("runtime.peak_rss_mb", peakRSSMB(), "MB")

	rep.add("testbed.actions", float64(res.TotalActions), "count")
	rep.add("testbed.failed_actions", float64(res.FailedActions), "count")
	rep.add("testbed.rolled_back_actions", float64(res.RolledBackActions), "count")
	rep.add("testbed.retries", float64(res.Retries), "count")
	rep.add("testbed.host_crashes", float64(res.HostCrashes), "count")
	rep.add("testbed.energy_kwh", res.EnergyKWh, "kWh")
	rep.add("testbed.target_violations", float64(res.TargetViolations), "count")
	rep.add("testbed.fault_invalid_config_windows", float64(e.invalidWindows), "count")
	rep.add("testbed.fault_fallback_windows", float64(e.faultFallbacks), "count")

	var provBytes float64
	if e.prov != nil {
		provBytes = float64(e.prov.buf.Len())
	}
	writeWall := lr.tr.total("provenance.write")
	rep.add("provenance.bytes_per_window", provBytes/twn, "B")
	rep.add("provenance.write_ms", ms(writeWall)/twn, "ms")
	rep.add("provenance.cpu_share", lr.attr.share("provenance"), "ratio")

	rep.add("obs.cpu_share", lr.attr.share("obs"), "ratio")
	rep.add("obs.history_anomalies", lr.counter("history_anomalies_total"), "count")
	rep.add("obs.slo_alerts", float64(e.engine.SLO().Snapshot().TotalAlerts), "count")

	adm, rej, _ := e.grd.Stats()
	rep.add("guard.admitted", float64(adm), "count")
	rep.add("guard.rejected", float64(rej), "count")

	rep.add("checkpoint.snapshot_ms", ms(lr.ck.snapshot), "ms")
	rep.add("checkpoint.restore_ms", ms(lr.ck.restore), "ms")
	rep.add("checkpoint.bytes", float64(lr.ck.bytes), "B")

	tracedWps := twn / stepSum.Seconds()
	rep.add("bench.tracing_overhead_pct", 100*(baseWps-tracedWps)/baseWps, "%")
	rep.add("bench.error_frac", ratio(float64(lr.traced.failed()), twn), "ratio")

	// The 4-app probe, measured only in the replay-2app pass.
	var p4Perf, p4Search, p4LQN, p4Decide, p4Speedup, p4L1 float64
	if p4 != nil {
		d4, _, _, _, _, _ := p4.decides()
		l1Stats, _ := p4.e.dec.Stats()
		p4Perf, p4Search, p4LQN = p4.attr.share("perfpwr"), p4.attr.share("search"), p4.attr.share("lqn")
		p4Decide, p4Speedup, p4L1 = ms(quantile(d4, 0.50)), p4.speedup, float64(l1Stats.Invocations)
	}
	rep.add("app4.core.perfpwr.cpu_share", p4Perf, "ratio")
	rep.add("app4.core.search.cpu_share", p4Search, "ratio")
	rep.add("app4.lqn.cpu_share", p4LQN, "ratio")
	rep.add("app4.strategy.decide_ms.p50", p4Decide, "ms")
	rep.add("app4.strategy.l1_invocations", p4L1, "count")
	rep.add("app4.par.speedup", p4Speedup, "ratio")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// crossCheck replays the same recipe with mistral-sim and requires the
// same per-window action counts and utilities, so the benchmark is known
// to drive the recipe users run.
func crossCheck(o options, l *leg) error {
	if o.simBin == "" {
		return fmt.Errorf("cross-check: --sim-bin not given")
	}
	cmd := exec.Command(o.simBin, "-apps", strconv.Itoa(o.r.apps), "-seed", strconv.FormatUint(o.seed, 10),
		"-workers", strconv.Itoa(o.r.workers), "-csv")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // dies with the benchmark
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("cross-check: mistral-sim: %w", err)
	}
	rows, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil || len(rows) < 2 {
		return fmt.Errorf("cross-check: unreadable mistral-sim output: %v", err)
	}
	head := rows[0]
	col := func(name string) int {
		for i, h := range head {
			if h == name {
				return i
			}
		}
		return -1
	}
	ca, cu, cc := col("actions"), col("utility"), col("cum_utility")
	if ca < 0 || cu < 0 || cc < 0 {
		return fmt.Errorf("cross-check: mistral-sim CSV lacks actions/utility columns")
	}
	rows = rows[1:]
	if len(rows) != len(l.res.Windows) {
		return fmt.Errorf("cross-check: mistral-sim replayed %d windows, benchmark %d", len(rows), len(l.res.Windows))
	}
	actions := 0
	for i, row := range rows {
		w := l.res.Windows[i]
		a, _ := strconv.Atoi(row[ca])
		actions += a
		if a != w.Actions || row[cu] != fmt.Sprintf("%.3f", w.Utility) {
			return fmt.Errorf("cross-check: window %d: mistral-sim %s actions $%s, benchmark %d actions $%.3f",
				i, row[ca], row[cu], w.Actions, w.Utility)
		}
	}
	last := rows[len(rows)-1][cc]
	if last != fmt.Sprintf("%.3f", l.res.CumUtility) || actions != l.res.TotalActions {
		return fmt.Errorf("cross-check: mistral-sim $%s %d actions, benchmark $%.3f %d actions",
			last, actions, l.res.CumUtility, l.res.TotalActions)
	}
	fmt.Printf("# cross-check: mistral-sim agrees: $%s cumulative utility, %d actions\n", last, actions)
	return nil
}

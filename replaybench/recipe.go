package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// recipe is one workload: a controller recipe replayed over the paper's
// Fig. 4 traces on the analytic testbed under the Self-Aware Mistral
// strategy. Evaluation concurrency is pinned, so a bigger runner does the
// same work.
type recipe struct {
	name    string
	apps    int
	hosts   int
	workers int
	windows int // 0 = the whole trace
	// daemon selects mistral-serve's recipe: fault plane (rate 0.15,
	// fault seed = seed), rollback on failure, admission guard, provenance
	// with step records, and a metrics registry with ops state and
	// history, so the SLO engine and the TSDB run.
	daemon bool
}

// A measured run replays at least minSessions sessions of different seeds,
// each the first sessionWindows windows (2h10m) of the trace from a fresh
// lab, and more until --seconds of replay are measured. On replay-2app,
// windows 63-64 hold 95% of a session's cost variance across seeds: a
// seed either triggers 2nd-level searches of 1-2 s there or not. For the
// same host time, many short sessions therefore make a much steadier
// sample than a few whole days (bootstrapped over 31 seeds on 2 vCPU, the
// IQR of ten 45 s runs is about 0.09 of the median against 0.12 for whole
// days). The traced pass replays the whole day.
const (
	sessionWindows = 65
	minSessions    = 16
)

// workloads are the benchmark's workloads.
var workloads = []recipe{
	{name: "replay-2app", apps: 2, hosts: 4, workers: 2, windows: sessionWindows},
	{name: "daemon-2app", apps: 2, hosts: 4, workers: 1, windows: sessionWindows, daemon: true},
}

// probe4 is the 4-app recipe the replay-2app traced pass also breaks
// down: Perf-Pwr's cost grows about as n^3.5, so it leads at 4 apps, and
// two 1st-level host groups decide in parallel through strategy's
// fan-out. A whole 4-app replay costs minutes, so only its first windows
// are replayed.
var probe4 = recipe{name: "probe-4app", apps: 4, hosts: 8, workers: 2, windows: 40}

const daemonFaultRate = 0.15

// checkpointSteps is how many windows both engines step after the
// checkpoint round-trip before their logs are compared.
const checkpointSteps = 3

func findRecipe(name string) (recipe, bool) {
	for _, r := range workloads {
		if r.name == name {
			return r, true
		}
	}
	return recipe{}, false
}

// subSeed is the seed of a run's i-th replay: the run's own seed first,
// then splitmix64 draws from it, so runs with different seeds replay
// different workloads.
func subSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	z := seed + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// env is one freshly built replay environment with cold evaluator caches.
type env struct {
	r       recipe
	seed    uint64
	workers int
	lab     *experiments.Lab
	tb      *testbed.Testbed
	eval    *core.Evaluator
	dec     *timedDecider
	engine  *scenario.Engine
	ob      *obs.Observer // the daemon's registry, or the traced leg's
	prov    *countingWriter
	grd     *guard.Guard
	labOpts experiments.LabOptions

	faultDirty     bool // an injected fault has disturbed the cluster since its configuration last validated
	invalidWindows int  // windows left with an invalid configuration by injected faults
	faultFallbacks int  // decides that fell back on a cluster disturbed by injected faults
}

// build constructs the environment: lab (calibration, cost tables, LQN
// model), evaluator, strategy, testbed and engine. reg, when non-nil,
// receives the controller stack's counters without turning on the
// engine's own observers; the daemon recipe always carries its own
// registry instead.
func (r recipe) build(seed uint64, workers int, reg *obs.Registry) (*env, error) {
	e := &env{r: r, seed: seed, workers: workers, labOpts: experiments.LabOptions{NumApps: r.apps, NumHosts: r.hosts, Seed: seed}}
	var ctrlObs *obs.Observer
	if r.daemon {
		// As mistral-serve: the observer is the process default while the
		// stack is built, and the engine's observer.
		e.ob = &obs.Observer{Metrics: obs.NewRegistry(), Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
		obs.SetDefault(e.ob)
		defer obs.SetDefault(nil)
	} else if reg != nil {
		e.ob = &obs.Observer{Metrics: reg}
		ctrlObs = e.ob
	}
	lab, err := experiments.NewLab(e.labOpts)
	if err != nil {
		return nil, err
	}
	e.lab = lab
	var inj *fault.Injector
	execPolicy := testbed.FailForward
	if r.daemon {
		inj = fault.New(fault.Profile(daemonFaultRate, seed))
		execPolicy = testbed.RollbackOnFailure
		e.grd = guard.New(guard.Config{Obs: e.ob}, lab.Cat)
	}
	if e.tb, err = lab.NewTestbedExec(inj, execPolicy); err != nil {
		return nil, err
	}
	if e.eval, err = lab.NewEvaluator(); err != nil {
		return nil, err
	}
	var rec *provenance.Recorder
	if r.daemon {
		e.prov = &countingWriter{}
		rec = provenance.NewRecorder(e.prov)
	}
	m, err := strategy.NewMistral(e.eval, strategy.MistralConfig{
		HostGroups:         lab.HostGroups(),
		MonitoringInterval: lab.Util.MonitoringInterval,
		Workers:            workers,
		Obs:                ctrlObs,
		Provenance:         rec.Enabled(),
	})
	if err != nil {
		return nil, err
	}
	e.dec = &timedDecider{Mistral: m}
	var engineObs *obs.Observer
	if r.daemon {
		engineObs = e.ob
	}
	e.engine, err = scenario.NewEngine(e.tb, e.dec, scenario.RunConfig{
		Traces:         lab.Traces,
		Duration:       time.Duration(r.windows) * lab.Util.MonitoringInterval,
		Interval:       lab.Util.MonitoringInterval,
		Utility:        lab.Util,
		Workers:        workers,
		Obs:            engineObs,
		Fault:          inj,
		Guard:          e.grd,
		Provenance:     rec,
		StepProvenance: r.daemon,
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// setTracer routes the decider's and provenance sink's spans to tr.
func (e *env) setTracer(tr *tracer) {
	e.dec.tr = tr
	if e.prov != nil {
		e.prov.tr = tr
	}
}

// windowRec is what the benchmark keeps of one window.
type windowRec struct {
	step    time.Duration
	decide  time.Duration
	decided bool
	level   int
	failed  bool
	digest  [32]byte // plan, action count and utility of this window
}

// leg is one replay of a recipe from a fresh environment.
type leg struct {
	recipe  string
	seed    uint64
	windows []windowRec
	res     *scenario.Result
	// shortfall is the utility the replay left on the table: the Eq. 1
	// reward for meeting every target at the offered rates, summed over
	// the windows, minus the realized Eq. 3 utility (which also pays for
	// power, penalties, adaptation and the search). It moves dollar for
	// dollar with the cumulative utility but, unlike it, never reaches 0.
	shortfall float64
}

func (l *leg) stepWall() time.Duration {
	var d time.Duration
	for _, w := range l.windows {
		d += w.step
	}
	return d
}

// digest chains the windows' digests.
func (l *leg) digest() string {
	h := sha256.New()
	for _, w := range l.windows {
		h.Write(w.digest[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (l *leg) failed() int {
	n := 0
	for _, w := range l.windows {
		if w.failed {
			n++
		}
	}
	return n
}

// replay steps the engine until its replay is done, checking every
// window: Step must succeed and the
// testbed's configuration must validate. Only Engine.Step is timed.
func (e *env) replay(tr *tracer) (*leg, error) {
	l := &leg{recipe: e.r.name, seed: e.seed}
	res := e.engine.Result()
	for !e.engine.Done() {
		idx := e.engine.WindowIndex()
		decideErrs, fallbacks := res.DecideErrors, res.FallbackDecisions
		dirty := e.faultDirty // the cluster this window's decide starts from
		e.dec.beginWindow()
		var sp int
		if tr != nil {
			tr.trace = obs.TraceID(idx)
			sp = tr.start("scenario.step")
		}
		t0 := time.Now()
		sr, err := e.engine.Step()
		step := time.Since(t0)
		if tr != nil {
			tr.end(sp, "", 0)
		}
		if err != nil {
			return l, fmt.Errorf("window %d: step: %w", idx, err)
		}
		if err := e.validate(sr.Window); err != nil {
			return l, fmt.Errorf("window %d: %w", idx, err)
		}
		if sr.ProvErr != nil {
			return l, fmt.Errorf("window %d: provenance: %w", idx, sr.ProvErr)
		}
		// A controller that falls back because an injected fault left the
		// cluster invalid (a crash stranding replicas, say) is degrading
		// as designed; any other fallback, and every decide error, fails
		// the window.
		fellBack := res.FallbackDecisions > fallbacks
		failed := res.DecideErrors > decideErrs || (fellBack && !dirty)
		if fellBack && dirty {
			e.faultFallbacks++
		}
		if failed {
			fmt.Printf("# %s seed %d window %d: decide erred or fell back: %s\n", e.r.name, e.seed, idx, sr.Window.DegradedReason)
		}
		l.windows = append(l.windows, windowRec{
			step:    step,
			decide:  e.dec.wall,
			decided: e.dec.called,
			level:   e.dec.level,
			failed:  failed,
			digest:  windowDigest(e.dec.plan, sr.Window),
		})
	}
	if err := e.engine.Close(); err != nil {
		return l, err
	}
	final := *res // the engine keeps appending if stepped on
	l.res = &final
	met := make(map[string]float64, len(e.lab.AppNames)) // RT 0 meets every target
	for _, name := range e.lab.AppNames {
		met[name] = 0
	}
	m := e.lab.Util.MonitoringInterval.Seconds()
	for _, w := range res.Windows {
		l.shortfall += e.lab.Util.PerfRateAll(w.Rates, met)*m - w.Utility
	}
	return l, nil
}

// validate checks the testbed's configuration at a window's end. While a
// plan is still executing, the configuration checked is the one the plan
// ends in: the steps in between are the search's intermediate
// configurations, which may exceed a host's capacity by design.
//
// Injected faults are exempt until the cluster recovers: a failed action
// fails forward and leaves the plan's applied prefix (an intermediate) in
// place until its retry lands, a crash re-places VMs, and an open breaker
// holds every plan back. From a window in which a fault struck, an
// invalid configuration is counted in invalidWindows instead of failing
// the run, until the configuration validates again.
func (e *env) validate(w scenario.WindowLog) error {
	if w.FailedActions > 0 || w.Retried > 0 || w.HostCrashes > 0 || w.Compensated {
		e.faultDirty = true
	}
	cfg, what := e.tb.FinalConfig(), "planned"
	if !e.tb.Busy() {
		cfg, what = e.tb.Config(), "current"
	}
	v := cfg.Validate(e.lab.Cat)
	switch {
	case len(v) == 0:
		e.faultDirty = false
	case e.faultDirty:
		e.invalidWindows++
	default:
		return fmt.Errorf("%s testbed configuration invalid: %s", what, v[0].Msg)
	}
	return nil
}

func windowDigest(plan string, w scenario.WindowLog) [32]byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(w.Actions))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(w.Utility))
	h := sha256.New()
	h.Write([]byte(plan))
	h.Write(b[:])
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// checkProvenance validates the daemon's provenance stream.
func (e *env) checkProvenance() error {
	if e.prov == nil {
		return nil
	}
	recs, err := provenance.ReadAll(bytes.NewReader(e.prov.buf.Bytes()))
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	if err := provenance.CheckStream(recs); err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	return nil
}

// roundTrip is a completed checkpoint round-trip.
type roundTrip struct {
	snapshot, restore time.Duration
	bytes             int
}

// checkpointRoundTrip snapshots the engine to checkpoint JSON, restores
// it into a freshly built twin, steps both checkpointSteps windows and
// requires identical window logs.
func (e *env) checkpointRoundTrip(tr *tracer) (roundTrip, error) {
	var rt roundTrip
	if tr != nil {
		tr.trace = "checkpoint"
	}
	sp := tr.start("checkpoint.snapshot")
	t0 := time.Now()
	snap, err := e.engine.Snapshot()
	if err != nil {
		return rt, err
	}
	raw, err := json.Marshal(&checkpoint.File{
		Schema:     checkpoint.Schema,
		Strategy:   "mistral",
		Workers:    e.workers,
		Lab:        e.labOpts,
		FaultRate:  daemonFaultRate,
		FaultSeed:  e.seed,
		ExecPolicy: testbed.RollbackOnFailure.String(),
		Guard:      e.grd != nil,
		Scenario:   snap,
	})
	if err != nil {
		return rt, err
	}
	rt.snapshot, rt.bytes = time.Since(t0), len(raw)
	tr.end(sp, "bytes", rt.bytes)

	twin, err := e.r.build(e.seed, e.workers, nil)
	if err != nil {
		return rt, err
	}
	sp = tr.start("checkpoint.restore")
	t0 = time.Now()
	ck, err := checkpoint.Decode(raw)
	if err != nil {
		return rt, err
	}
	if err := twin.engine.Restore(ck.Scenario); err != nil {
		return rt, err
	}
	rt.restore = time.Since(t0)
	tr.end(sp, "", 0)

	for i := 0; i < checkpointSteps; i++ {
		a, err := e.engine.Step()
		if err != nil {
			return rt, fmt.Errorf("checkpoint: original step: %w", err)
		}
		b, err := twin.engine.Step()
		if err != nil {
			return rt, fmt.Errorf("checkpoint: restored step: %w", err)
		}
		ja, _ := json.Marshal(a.Window) // WindowLog holds only plain values
		jb, _ := json.Marshal(b.Window)
		if a.Index != b.Index || string(ja) != string(jb) {
			return rt, fmt.Errorf("checkpoint: restored engine diverged at window %d", a.Index)
		}
	}
	return rt, nil
}

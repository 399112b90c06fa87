package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// StrategyName is a strategy's display label: the name its decider
// reports in results, figures and checkpoints' engine snapshots.
type StrategyName string

// The display labels of the strategy table: the four strategies compared
// in §V-C, plus Mistral without the Self-Aware search (Fig. 10).
const (
	StrategyPerfPwr  StrategyName = "Perf-Pwr"
	StrategyPerfCost StrategyName = "Perf-Cost"
	StrategyPwrCost  StrategyName = "Pwr-Cost"
	StrategyMistral  StrategyName = "Mistral"
	StrategyNaive    StrategyName = "Mistral-Naive"
)

// strategyRow is one entry of the strategy table.
type strategyRow struct {
	name  string // the CLI name, as Recipe.Strategy and checkpoints spell it
	label StrategyName
	build func(lab *Lab, eval *core.Evaluator, mc strategy.MistralConfig) (scenario.Decider, error)
}

func newMistral(_ *Lab, eval *core.Evaluator, mc strategy.MistralConfig) (scenario.Decider, error) {
	m, err := strategy.NewMistral(eval, mc)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// strategies is the strategy table: the four compared strategies in the
// paper's order, then naive.
var strategies = []strategyRow{
	{"perf-pwr", StrategyPerfPwr, func(_ *Lab, eval *core.Evaluator, _ strategy.MistralConfig) (scenario.Decider, error) {
		return strategy.NewPerfPwr(eval), nil
	}},
	{"perf-cost", StrategyPerfCost, func(lab *Lab, eval *core.Evaluator, _ strategy.MistralConfig) (scenario.Decider, error) {
		return strategy.NewPerfCost(eval, lab.Util)
	}},
	{"pwr-cost", StrategyPwrCost, func(_ *Lab, eval *core.Evaluator, _ strategy.MistralConfig) (scenario.Decider, error) {
		return strategy.NewPwrCost(eval), nil
	}},
	{"mistral", StrategyMistral, newMistral},
	{"naive", StrategyNaive, newMistral},
}

// compared returns the four strategies of Figs. 8-9 in comparison order.
func compared() []strategyRow { return strategies[:4] }

// lookupStrategy finds a strategy by its CLI name, ignoring case.
func lookupStrategy(name string) (strategyRow, error) {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		if strings.EqualFold(s.name, name) {
			return s, nil
		}
		names[i] = s.name
	}
	return strategyRow{}, fmt.Errorf("experiments: unknown strategy %q (want %s)", name, strings.Join(names, ", "))
}

// AllStrategies lists the comparison order used in the paper's figures.
func AllStrategies() []StrategyName {
	var out []StrategyName
	for _, s := range compared() {
		out = append(out, s.label)
	}
	return out
}

// paperSearch is the search cost model of the paper-figure experiments:
// each generated child charges 300 µs of simulated search time.
var paperSearch = core.SearchOptions{TimePerChild: 300 * time.Microsecond}

// NewDecider builds the named strategy (a CLI name of the strategy table)
// over a fresh evaluator of the lab's controller model. mc configures
// Mistral; the table fills in its host groups (when nil), monitoring
// interval and naive search. Baselines ignore it.
func (l *Lab) NewDecider(name string, mc strategy.MistralConfig) (scenario.Decider, *core.Evaluator, error) {
	st, err := lookupStrategy(name)
	if err != nil {
		return nil, nil, err
	}
	eval, err := l.NewEvaluator()
	if err != nil {
		return nil, nil, err
	}
	if mc.HostGroups == nil {
		mc.HostGroups = l.HostGroups()
	}
	mc.MonitoringInterval = l.Util.MonitoringInterval
	mc.Naive = st.label == StrategyNaive
	d, err := st.build(l, eval, mc)
	if err != nil {
		return nil, nil, err
	}
	return d, eval, nil
}

// Recipe is everything that determines a replay environment's decisions:
// the strategy, its testbed, fault plane and safety planes. A checkpoint
// persists it (checkpoint.File), so a fresh process rebuilds the
// identical environment before restoring into it.
type Recipe struct {
	// Strategy is a CLI name from the strategy table: mistral, naive,
	// perf-pwr, perf-cost or pwr-cost.
	Strategy string
	// Workers bounds evaluation concurrency (0 = min(GOMAXPROCS, 8),
	// 1 = serial); decisions are identical at every setting.
	Workers int
	// Lab holds the options as given to NewLab (pre-default).
	Lab LabOptions
	// FaultRate is the action-failure probability in [0,1]; above 0 it
	// enables the fault plane (fault.Profile).
	FaultRate float64
	// FaultSeed seeds the fault schedule (0 = Lab.Seed).
	FaultSeed uint64
	// ExecPolicy is the testbed's plan execution policy as
	// testbed.ParseExecPolicy spells it ("" = fail-forward).
	ExecPolicy string
	// Guard enables the admission guard and adaptation circuit breaker.
	Guard bool
}

// Validate checks the recipe before any lab is built.
func (r Recipe) Validate() error {
	if _, err := lookupStrategy(r.Strategy); err != nil {
		return err
	}
	if _, err := testbed.ParseExecPolicy(r.ExecPolicy); err != nil {
		return err
	}
	if math.IsNaN(r.FaultRate) || r.FaultRate < 0 || r.FaultRate > 1 {
		return fmt.Errorf("experiments: fault rate %v out of [0,1]", r.FaultRate)
	}
	if r.Lab.NumApps < 1 || r.Lab.NumApps > 4 {
		return fmt.Errorf("experiments: apps must be in 1..4 (got %d)", r.Lab.NumApps)
	}
	if r.Lab.NumHosts < 0 {
		return fmt.Errorf("experiments: hosts must not be negative (got %d)", r.Lab.NumHosts)
	}
	if r.Workers < 0 {
		return fmt.Errorf("experiments: workers must not be negative (got %d)", r.Workers)
	}
	return nil
}

// Attach holds what a process attaches to an environment: sinks and
// bounds that shape what a run records and how long it runs, never what
// it decides.
type Attach struct {
	// Obs is the observer of the guard and the engine; nil resolves the
	// process default (obs.SetDefault), which the strategy always uses.
	Obs *obs.Observer
	// Provenance receives one record per window; StepProvenance adds the
	// per-step execution outcomes.
	Provenance     *provenance.Recorder
	StepProvenance bool
	// Profile captures pprof artifacts for decides over budget.
	Profile *obs.Profiler
	// Duration bounds the replay (0 = the whole trace).
	Duration time.Duration
}

// Env is an environment assembled by Build.
type Env struct {
	// Recipe is the recipe as built: the strategy's CLI name in lower
	// case, the fault seed resolved and the exec policy spelled
	// canonically. A checkpoint records exactly this.
	Recipe  Recipe
	Lab     *Lab
	Fault   *fault.Injector
	Testbed *testbed.Testbed
	Guard   *guard.Guard
	Eval    *core.Evaluator
	Decider scenario.Decider
	// Mistral is the decider when the strategy is mistral or naive.
	Mistral *strategy.Mistral
	Engine  *scenario.Engine
}

// Build validates the recipe and assembles its environment: lab, fault
// injector, testbed, guard, evaluator, strategy and engine, positioned
// before window 0. search tunes Mistral's A* search; the paper-figure
// experiments charge 300 µs per child, the CLIs the core default.
func Build(r Recipe, search core.SearchOptions, at Attach) (*Env, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	st, _ := lookupStrategy(r.Strategy)
	exec, _ := testbed.ParseExecPolicy(r.ExecPolicy)
	r.Strategy, r.ExecPolicy = st.name, exec.String()
	if r.FaultSeed == 0 {
		r.FaultSeed = r.Lab.Seed
	}
	lab, err := NewLab(r.Lab)
	if err != nil {
		return nil, err
	}
	e := &Env{Recipe: r, Lab: lab}
	e.Fault = fault.New(fault.Profile(r.FaultRate, r.FaultSeed))
	if e.Testbed, err = lab.NewTestbedExec(e.Fault, exec); err != nil {
		return nil, err
	}
	if r.Guard {
		e.Guard = guard.New(guard.Config{Obs: at.Obs}, lab.Cat)
	}
	e.Decider, e.Eval, err = lab.NewDecider(r.Strategy, strategy.MistralConfig{
		Workers:    r.Workers,
		Search:     search,
		Provenance: at.Provenance.Enabled(),
	})
	if err != nil {
		return nil, err
	}
	e.Mistral, _ = e.Decider.(*strategy.Mistral)
	e.Engine, err = scenario.NewEngine(e.Testbed, e.Decider, scenario.RunConfig{
		Traces:         lab.Traces,
		Duration:       at.Duration,
		Interval:       lab.Util.MonitoringInterval,
		Utility:        lab.Util,
		Workers:        r.Workers,
		Obs:            at.Obs,
		Fault:          e.Fault,
		Guard:          e.Guard,
		Provenance:     at.Provenance,
		StepProvenance: at.StepProvenance,
		Profile:        at.Profile,
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Run steps the engine to the end of its replay and closes it.
func (e *Env) Run() (*scenario.Result, error) {
	for !e.Engine.Done() {
		if _, err := e.Engine.Step(); err != nil {
			return nil, err
		}
	}
	if err := e.Engine.Close(); err != nil {
		return nil, err
	}
	return e.Engine.Result(), nil
}

// runRecipe builds a recipe on the paper-figure search and replays it.
func runRecipe(r Recipe, duration time.Duration) (*Env, *scenario.Result, error) {
	env, err := Build(r, paperSearch, Attach{Duration: duration})
	if err != nil {
		return nil, nil, err
	}
	res, err := env.Run()
	return env, res, err
}

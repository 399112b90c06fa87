package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
)

// Decide levels, as classified by which Mistral.Stats counter advanced.
const (
	levelNone = iota // the band held: no controller searched
	levelL1
	levelL2
)

// timedDecider is the scenario.Decider the benchmark hands to the engine.
// Embedding *strategy.Mistral keeps the optional extensions the engine
// detects by type assertion (scenario.TraceAware, scenario.Snapshotter);
// only Decide is wrapped, to time it and keep its plan for the digest.
type timedDecider struct {
	*strategy.Mistral
	tr *tracer // nil outside the traced leg

	called bool // Decide ran in the current window
	wall   time.Duration
	level  int
	plan   string
}

// beginWindow clears the per-window record before Engine.Step.
func (d *timedDecider) beginWindow() {
	d.called, d.wall, d.level, d.plan = false, 0, levelNone, ""
}

func (d *timedDecider) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (scenario.Decision, error) {
	l1, l2 := d.Stats()
	sp := d.tr.start("strategy.decide")
	t0 := time.Now()
	dec, err := d.Mistral.Decide(now, cfg, rates)
	d.wall = time.Since(t0)
	d.called = true
	n1, n2 := d.Stats()
	switch {
	case n2.Invocations > l2.Invocations:
		d.level = levelL2
	case n1.Invocations > l1.Invocations:
		d.level = levelL1
	}
	d.plan = cluster.PlanString(dec.Plan)
	d.tr.end(sp, "level", d.level)
	return dec, err
}

// countingWriter is the in-memory provenance sink under
// provenance.NewRecorder: it keeps the stream for provenance.CheckStream,
// counts its bytes, and in the traced leg times every Write as a span.
type countingWriter struct {
	buf bytes.Buffer
	tr  *tracer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	sp := w.tr.start("provenance.write")
	n, err := w.buf.Write(p)
	w.tr.end(sp, "bytes", n)
	return n, err
}

// tracedCounters are the registry counters read at every span boundary;
// each span records how far they advanced while it was open.
var tracedCounters = []string{
	"search_invocations_total",
	"search_expansions_total",
	"search_generated_total",
	"search_pruned_children_total",
	"search_truncated_total",
	"eval_cache_hits_total",
	"eval_cache_misses_total",
	"eval_inflight_dedup_total",
	"lqn_solves_total",
	"perfpwr_sweep_arms_total",
	"guard_admitted_total",
	"guard_rejected_total",
	"history_anomalies_total",
}

// span is one traced interval. Spans of one window share its trace ID
// (obs.TraceID of the window index); Parent indexes the enclosing span,
// -1 for a root.
type span struct {
	Name   string           `json:"name"`
	Trace  string           `json:"trace"`
	Parent int              `json:"parent"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	base   []int64
}

// tracer keeps spans in memory for the traced leg. A nil tracer records
// nothing, so the untraced legs pay one nil check per boundary.
type tracer struct {
	reg   *obs.Registry
	t0    time.Time
	trace string
	stack []int
	spans []span
}

func newTracer(reg *obs.Registry) *tracer {
	return &tracer{reg: reg, t0: time.Now()}
}

func (t *tracer) counters() []int64 {
	v := make([]int64, len(tracedCounters))
	for i, name := range tracedCounters {
		v[i] = t.reg.CounterValue(name)
	}
	return v
}

// start opens a span under the innermost open one and returns its index.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{
		Name:   name,
		Trace:  t.trace,
		Parent: parent,
		Start:  time.Since(t.t0),
		base:   t.counters(),
	})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, recording the counter deltas and an optional
// key/value attribute.
func (t *tracer) end(i int, key string, val int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = time.Since(t.t0)
	s.Attrs = make(map[string]int64)
	for j, v := range t.counters() {
		if d := v - s.base[j]; d != 0 {
			s.Attrs[tracedCounters[j]] = d
		}
	}
	s.base = nil
	if key != "" {
		s.Attrs[key] = int64(val)
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

package scenario_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
)

// ckEnv is one independently constructed replay environment — its own lab,
// testbed, strategy, observer registry, and provenance sink — standing in
// for a separate process.
type ckEnv struct {
	engine *scenario.Engine
	prov   *bytes.Buffer
	hist   *tsdb.Store
	ops    *obs.OpsState
}

func newCkEnv(t *testing.T, workers int) *ckEnv {
	t.Helper()
	lab, err := experiments.NewLab(experiments.LabOptions{NumApps: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := lab.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	eval, err := lab.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := strategy.NewMistral(eval, strategy.MistralConfig{
		HostGroups:         lab.HostGroups(),
		MonitoringInterval: lab.Util.MonitoringInterval,
		Workers:            workers,
		Provenance:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := &bytes.Buffer{}
	// A fresh metrics registry per environment: the restore path must
	// re-seat the cumulative counters the SLO engine diffs, exactly as a
	// restarted process would have to.
	ob := &obs.Observer{Metrics: obs.NewRegistry(), Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
	e, err := scenario.NewEngine(tb, dec, scenario.RunConfig{
		Traces:     lab.Traces,
		Duration:   100 * lab.Util.MonitoringInterval,
		Interval:   lab.Util.MonitoringInterval,
		Utility:    lab.Util,
		Workers:    workers,
		Obs:        ob,
		Provenance: provenance.NewRecorder(buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &ckEnv{engine: e, prov: buf, hist: ob.History, ops: ob.Ops}
}

// histQueryJSON renders a raw-resolution trend query over the full window
// range for a fixed set of virtual series. Wall-clock series are excluded:
// they are observational and never identical across runs.
func histQueryJSON(t *testing.T, hist *tsdb.Store) []byte {
	t.Helper()
	resp, err := hist.Query([]string{"utility", "watts", "expansions", "guard_rejected"}, 0, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func stepN(t *testing.T, e *scenario.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", e.WindowIndex(), err)
		}
	}
}

// resultJSON finalizes and serializes a result with the wall-clock decide
// samples stripped — they are the one observational field that legitimately
// differs between runs.
func resultJSON(t *testing.T, e *scenario.Engine) []byte {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	res := *e.Result()
	res.DecideWall = nil
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func sloJSON(t *testing.T, e *scenario.Engine) []byte {
	t.Helper()
	raw, err := json.Marshal(e.SLO().Persist())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCheckpointRoundTripDeterminism is the resumable engine's hard
// compatibility bar: a 100-window fixed-seed run and a checkpoint-at-50 +
// restore-into-a-fresh-environment run must produce byte-identical
// decisions, provenance streams, and SLO state. The checkpoint crosses a
// JSON serialization boundary, as it would a process boundary.
func TestCheckpointRoundTripDeterminism(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			full := newCkEnv(t, workers)
			stepN(t, full.engine, 100)

			half := newCkEnv(t, workers)
			stepN(t, half.engine, 50)
			snap, err := half.engine.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ckBytes, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}

			resumed := newCkEnv(t, workers)
			var restored scenario.Snapshot
			if err := json.Unmarshal(ckBytes, &restored); err != nil {
				t.Fatal(err)
			}
			if err := resumed.engine.Restore(&restored); err != nil {
				t.Fatal(err)
			}
			if got := resumed.engine.WindowIndex(); got != 50 {
				t.Fatalf("restored engine at window %d, want 50", got)
			}
			stepN(t, resumed.engine, 50)

			fullRes, resumedRes := resultJSON(t, full.engine), resultJSON(t, resumed.engine)
			if !bytes.Equal(fullRes, resumedRes) {
				t.Errorf("results diverge after restore:\nfull:    %s\nresumed: %s", fullRes, resumedRes)
			}

			cat := append(append([]byte(nil), half.prov.Bytes()...), resumed.prov.Bytes()...)
			if !bytes.Equal(full.prov.Bytes(), cat) {
				t.Errorf("provenance streams diverge: full %d bytes, pre+post-restore %d bytes",
					full.prov.Len(), len(cat))
			}

			if fullSLO, resumedSLO := sloJSON(t, full.engine), sloJSON(t, resumed.engine); !bytes.Equal(fullSLO, resumedSLO) {
				t.Errorf("SLO state diverges after restore:\nfull:    %s\nresumed: %s", fullSLO, resumedSLO)
			}

			// The trend API must answer identically across the restore
			// boundary: the same /v1/query over the overlapping window range
			// returns byte-identical virtual series from either engine.
			if fullHist, resumedHist := histQueryJSON(t, full.hist), histQueryJSON(t, resumed.hist); !bytes.Equal(fullHist, resumedHist) {
				t.Errorf("history query diverges after restore:\nfull:    %s\nresumed: %s", fullHist, resumedHist)
			}
		})
	}
}

// opsJSON serializes the published /ops document without its two
// wall-clock fields, the publish stamp and the last decide's wall time.
func opsJSON(t *testing.T, ops *obs.OpsState) []byte {
	t.Helper()
	doc := ops.Snapshot()
	doc.UpdatedUnixMS, doc.LastDecideWallMS = 0, 0
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRestoredEngineServesCheckpointedOps pins that a restore republishes
// /ops from the restored state: the fresh engine serves the document the
// checkpointed engine was serving — window cursor, trace, counters,
// cumulative utility, SLO block and trend digests — not an empty run.
func TestRestoredEngineServesCheckpointedOps(t *testing.T) {
	src := newCkEnv(t, 1)
	stepN(t, src.engine, 5)
	snap, err := src.engine.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ckBytes, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var restored scenario.Snapshot
	if err := json.Unmarshal(ckBytes, &restored); err != nil {
		t.Fatal(err)
	}
	dst := newCkEnv(t, 1)
	if err := dst.engine.Restore(&restored); err != nil {
		t.Fatal(err)
	}
	want, got := opsJSON(t, src.ops), opsJSON(t, dst.ops)
	if !bytes.Equal(want, got) {
		t.Errorf("restored /ops differs from the checkpointed engine's:\nsource:   %s\nrestored: %s", want, got)
	}
	if doc := dst.ops.Snapshot(); doc.Window != 4 || doc.Windows != 5 || len(doc.SLO) == 0 || len(doc.History) == 0 {
		t.Errorf("restored /ops window %d, windows %d, slo %d bytes, %d series; want 4, 5, non-empty, non-empty",
			doc.Window, doc.Windows, len(doc.SLO), len(doc.History))
	}
}

// TestCheckpointMismatchRejected exercises the restore guard rails: wrong
// schema, wrong strategy, and a fault-plane mismatch must all fail cleanly
// instead of silently resuming into a different environment.
func TestCheckpointMismatchRejected(t *testing.T) {
	env := newCkEnv(t, 1)
	stepN(t, env.engine, 2)
	snap, err := env.engine.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh := newCkEnv(t, 1)

	bad := *snap
	bad.Schema = "mistral.checkpoint/v0"
	if err := fresh.engine.Restore(&bad); err == nil {
		t.Error("schema mismatch accepted")
	}

	bad = *snap
	bad.Strategy = "Perf-Pwr"
	if err := fresh.engine.Restore(&bad); err == nil {
		t.Error("strategy mismatch accepted")
	}

	// The checkpoint was taken without fault injection; an engine restoring
	// it must refuse a snapshot that claims fault-plane state (and vice
	// versa) — they were produced by a differently wired environment.
	bad = *snap
	bad.Fault = &fault.State{}
	if err := fresh.engine.Restore(&bad); err == nil {
		t.Error("fault-plane mismatch accepted")
	}
}

package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/obs/tsdb"
)

// OpsSchema versions the /ops JSON snapshot so consumers (mistral-top,
// CI scrapes) can reject incompatible payloads.
const OpsSchema = "mistral.ops/v1"

// OpsSnapshot is the controller-health document served at /ops. Wall
// clock appears only in the explicitly-labeled *_ms / *_unix_ms fields;
// all other quantities are virtual-time or deterministic counts.
type OpsSnapshot struct {
	Schema      string  `json:"schema"`
	Strategy    string  `json:"strategy,omitempty"`
	IntervalSec float64 `json:"interval_sec,omitempty"`
	// Window/Trace identify the most recently completed window.
	Window           int             `json:"window"`
	Trace            string          `json:"trace,omitempty"`
	TimeSec          float64         `json:"t_sec"`
	Windows          int             `json:"windows"`
	CumUtility       float64         `json:"cum_utility_dollars"`
	DegradedWindows  int             `json:"degraded_windows"`
	DecideErrors     int             `json:"decide_errors"`
	Retries          int             `json:"retries"`
	HostCrashes      int             `json:"host_crashes"`
	LastDecideWallMS float64         `json:"last_decide_wall_ms"`
	SLO              json.RawMessage `json:"slo,omitempty"`
	// History digests the telemetry store's retained series (per-series
	// min/max/last plus a sparkline vector of the newest values).
	History       []tsdb.Summary `json:"history,omitempty"`
	UpdatedUnixMS int64          `json:"updated_unix_ms,omitempty"`
}

// OpsState is the live controller-health surface behind /ops: a slot
// holding the document the scenario engine last published. The engine
// Sets a freshly built document after each window; the HTTP handler and
// mistral-top read it concurrently. A nil *OpsState is a valid disabled
// state: Set is a no-op and Snapshot serves the empty document.
type OpsState struct {
	mu   sync.Mutex
	snap OpsSnapshot
}

// NewOpsState builds an ops state holding the empty document.
func NewOpsState() *OpsState {
	return &OpsState{snap: OpsSnapshot{Schema: OpsSchema, Window: -1}}
}

// Set publishes doc as the current document, stamping its wall-clock
// update time (the one intentionally nondeterministic field, labeled as
// such). The state keeps doc's slices: the publisher hands over a
// freshly built document and must not modify it afterwards.
func (s *OpsState) Set(doc OpsSnapshot) {
	if s == nil {
		return
	}
	doc.UpdatedUnixMS = time.Now().UnixMilli()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = doc
}

// Snapshot returns the current document. Its SLO and History slices are
// shared with every other reader and must be treated as read-only.
func (s *OpsState) Snapshot() OpsSnapshot {
	if s == nil {
		return OpsSnapshot{Schema: OpsSchema, Window: -1}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Handler serves the snapshot as JSON — the /ops endpoint mounted next
// to /metrics. Works on a nil state (serves the empty document), so the
// route can always be mounted.
func (s *OpsState) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Snapshot())
	})
}

// OpsState returns the observer's ops surface, or nil (a valid
// disabled state).
func (o *Observer) OpsState() *OpsState {
	if o == nil {
		return nil
	}
	return o.Ops
}

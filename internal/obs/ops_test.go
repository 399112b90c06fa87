package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestOpsStatePublish checks Set replaces the whole document and stamps
// its update time, and that Snapshot hands the published document back.
func TestOpsStatePublish(t *testing.T) {
	s := NewOpsState()
	if got := s.Snapshot(); got.Schema != OpsSchema || got.Window != -1 || got.UpdatedUnixMS != 0 {
		t.Fatalf("initial document %+v", got)
	}
	s.Set(OpsSnapshot{Schema: OpsSchema, Strategy: "Mistral", Window: 4, Trace: TraceID(4), Windows: 5, CumUtility: 5.32})
	got := s.Snapshot()
	if got.Strategy != "Mistral" || got.Window != 4 || got.Trace != "w000004" || got.Windows != 5 || got.CumUtility != 5.32 {
		t.Fatalf("published document %+v", got)
	}
	if got.UpdatedUnixMS == 0 {
		t.Fatal("Set did not stamp the update time")
	}
	// A later publish replaces every field, not just the ones it sets.
	s.Set(OpsSnapshot{Schema: OpsSchema, Strategy: "Naive", Window: -1})
	if got := s.Snapshot(); got.Windows != 0 || got.Trace != "" || got.Strategy != "Naive" {
		t.Fatalf("second publish merged into the first: %+v", got)
	}
}

// TestOpsNilSafe proves the nil state is fully inert and its handler
// still serves the empty document, so /ops can always be mounted.
func TestOpsNilSafe(t *testing.T) {
	var s *OpsState
	s.Set(OpsSnapshot{Schema: OpsSchema, Window: 1})
	if snap := s.Snapshot(); snap.Schema != OpsSchema || snap.Window != -1 {
		t.Fatalf("nil snapshot %+v", snap)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/ops", nil))
	var doc OpsSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil || doc.Schema != OpsSchema {
		t.Fatalf("nil handler served %q (err %v)", rr.Body.String(), err)
	}
	var o *Observer
	if o.OpsState() != nil {
		t.Fatal("nil observer returned ops state")
	}
}

// TestOpsSLOAttachment checks the raw SLO document rides the published
// snapshot through the /ops handler.
func TestOpsSLOAttachment(t *testing.T) {
	s := NewOpsState()
	s.Set(OpsSnapshot{Schema: OpsSchema, SLO: json.RawMessage(`{"schema":"mistral.slo/v1"}`)})
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/ops", nil))
	var doc OpsSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var slo struct{ Schema string }
	if err := json.Unmarshal(doc.SLO, &slo); err != nil || slo.Schema != "mistral.slo/v1" {
		t.Fatalf("slo %q (err %v)", doc.SLO, err)
	}
}

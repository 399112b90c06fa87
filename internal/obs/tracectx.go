package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// TraceContext is the causal identity of one monitoring window. Every
// observability stream — trace spans, provenance records, SLO alerts,
// the /ops document, log lines — carries the same window-derived ID,
// so mistral-explain and the ops plane can stitch one window's story
// across all of them.
//
// The ID is derived deterministically from the window index alone
// (WindowTrace), never from wall clocks or random sources. That keeps
// provenance JSONL byte-identical with tracing on or off: the
// provenance record's Window field already pins the identity, and
// consumers recompute the trace ID from it instead of serializing a
// new field.
//
// The zero value is a valid disabled context: Enabled reports false
// and ID/SpanID return "".
type TraceContext struct {
	// Window is the 0-based monitoring-window index.
	Window int
	// TraceID is the shared identifier, "w%06d" of the window index.
	TraceID string
}

// WindowTrace builds the trace context for the given 0-based window
// index. The mapping is pure: WindowTrace(n).TraceID == TraceID(n) for
// every caller, with no process state involved.
func WindowTrace(window int) TraceContext {
	return TraceContext{Window: window, TraceID: TraceID(window)}
}

// TraceID returns the canonical trace identifier for a window index,
// e.g. TraceID(42) == "w000042". provenance records do not store it;
// readers recompute it from Record.Window with this function.
func TraceID(window int) string { return fmt.Sprintf("w%06d", window) }

// Enabled reports whether the context carries an identity.
func (tc TraceContext) Enabled() bool { return tc.TraceID != "" }

// ID returns the trace identifier ("" when disabled).
func (tc TraceContext) ID() string { return tc.TraceID }

// SpanID composes a deterministic span identifier under this trace by
// joining the trace ID with the given path segments, e.g.
// SpanID("mistral/L2", "search") == "w000042/mistral/L2/search".
// Uniqueness holds as long as the segments name a unique point in the
// decide tree (controller names are unique per hierarchy, stages are
// sequential per controller), so no counters — and therefore no
// cross-goroutine ordering — are involved.
func (tc TraceContext) SpanID(parts ...string) string {
	if tc.TraceID == "" {
		return ""
	}
	if len(parts) == 0 {
		return tc.TraceID
	}
	return tc.TraceID + "/" + strings.Join(parts, "/")
}

// Attr returns the span attribute carrying this trace ID, the join key
// shared with provenance and SLO alerts. A disabled context yields an
// empty-valued attr that filters out naturally.
func (tc TraceContext) Attr() Attr { return Attr{Key: "trace", Value: tc.TraceID} }

// SpanRecord is the exported JSONL encoding of one completed span,
// used by readers (mistral-explain trace stitching). It mirrors the
// tracer's on-disk schema exactly.
type SpanRecord struct {
	Name     string         `json:"name"`
	ID       uint64         `json:"id"`
	Parent   uint64         `json:"parent,omitempty"`
	VStartUS int64          `json:"v_start_us"`
	VEndUS   int64          `json:"v_end_us"`
	WallUS   int64          `json:"wall_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// TraceID returns the span's trace attribute ("" when the span was
// recorded outside any window trace context).
func (s *SpanRecord) TraceID() string {
	if v, ok := s.Attrs["trace"].(string); ok {
		return v
	}
	return ""
}

// ReadSpans parses a JSONL span stream (the tracer's FormatJSONL
// output). Blank lines are skipped; a malformed line aborts with an
// error naming its line number.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("obs: span line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: span stream: %w", err)
	}
	return out, nil
}

// SpansForTrace filters spans carrying the given trace ID, preserving
// input order (the tracer emits in span-end order).
func SpansForTrace(spans []SpanRecord, traceID string) []SpanRecord {
	var out []SpanRecord
	for _, s := range spans {
		if s.TraceID() == traceID {
			out = append(out, s)
		}
	}
	return out
}

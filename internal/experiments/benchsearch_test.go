package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchSearchSnapshot runs the bench harness on a short cycle and
// checks the snapshot is sane, its work counters are deterministic for a
// seed, and the baseline gate trips exactly when it should.
func TestBenchSearchSnapshot(t *testing.T) {
	r, err := BenchSearch(42, BenchOptions{Windows: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Expansions <= 0 || r.Generated <= r.Expansions {
		t.Fatalf("implausible work counters: %d expansions, %d generated", r.Expansions, r.Generated)
	}
	if r.NsPerExpansion <= 0 || r.AllocsPerExpansion <= 0 {
		t.Fatalf("missing per-expansion figures: %+v", r)
	}
	if r.CacheHitPct < 0 || r.CacheHitPct > 100 {
		t.Fatalf("cache hit %% out of range: %v", r.CacheHitPct)
	}
	if r.DecideP99Ms < r.DecideP50Ms {
		t.Fatalf("p99 %vms below p50 %vms", r.DecideP99Ms, r.DecideP50Ms)
	}

	again, err := BenchSearch(42, BenchOptions{Windows: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again.Expansions != r.Expansions || again.Generated != r.Generated {
		t.Errorf("work counters not deterministic: %d/%d vs %d/%d expansions/generated",
			r.Expansions, r.Generated, again.Expansions, again.Generated)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	// Against its own snapshot the run is exactly at 1.00x: inside any
	// non-negative tolerance.
	if verdict, err := r.CompareBaseline(path, 20); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	} else if !strings.Contains(verdict, "1.00x") {
		t.Errorf("unexpected verdict %q", verdict)
	}
	// An impossible baseline must trip the gate.
	tight := *r
	tight.NsPerExpansion = r.NsPerExpansion / 10
	tightPath := filepath.Join(t.TempDir(), "tight.json")
	if err := tight.WriteJSON(tightPath); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CompareBaseline(tightPath, 20); err == nil {
		t.Error("10x regression passed the 20% gate")
	}
}

// TestCompareBaselineGates checks both baseline gates on fixed snapshots:
// the work counters must match exactly, and ns/expansion may not regress
// past the tolerance.
func TestCompareBaselineGates(t *testing.T) {
	base := BenchResult{Seed: 42, Windows: 64, Expansions: 2032, Generated: 87096, NsPerExpansion: 1000}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := base.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		edit    func(*BenchResult)
		wantErr string // empty: the comparison passes
	}{
		{"equal counters", func(*BenchResult) {}, ""},
		{"expansions off by one", func(r *BenchResult) { r.Expansions++ }, "bench counters differ"},
		{"ns/expansion past tolerance", func(r *BenchResult) { r.NsPerExpansion = 1300 }, "bench regression"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := base
			tc.edit(&r)
			verdict, err := r.CompareBaseline(path, 20)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected failure: %v", err)
				}
				if !strings.Contains(verdict, "counters match") {
					t.Errorf("verdict %q does not report the counter check", verdict)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("got %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

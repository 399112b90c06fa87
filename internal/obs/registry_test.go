package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers one counter, gauge, and histogram from
// many goroutines; run under -race it proves the registry needs no
// external locking.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", []float64{10, 100}).Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if got := r.CounterValue("c"); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	h := r.Histogram("h", nil).Snapshot()
	if h.Count != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*iters)
	}
	var sum int64
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Count {
		t.Errorf("bucket sum %d != count %d", sum, h.Count)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	// Exactly on a bound lands in that bound's bucket (inclusive "le").
	for _, v := range []float64{-5, 0.5, 1, 1.5, 10, 99.9, 100, 101, 1e9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{3, 2, 2, 2} // le1: {-5,0.5,1}; le10: {1.5,10}; le100: {99.9,100}; overflow: {101,1e9}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := newHistogram([]float64{100, 1, 10})
	h.Observe(5)
	s := h.Snapshot()
	if s.Bounds[0] != 1 || s.Bounds[2] != 100 {
		t.Fatalf("bounds not sorted: %v", s.Bounds)
	}
	if s.Counts[1] != 1 { // 5 <= 10
		t.Errorf("counts = %v, want observation in bucket 1", s.Counts)
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	r.Gauge("temp").Set(1.5)
	r.Histogram("lat", []float64{1, 2}).Observe(1.2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["reqs"] != 3 || s.Gauges["temp"] != 1.5 || s.Histograms["lat"].Count != 1 {
		t.Errorf("snapshot mismatch: %+v", s)
	}
}

// TestHistogramDuplicateRegistration pins the return-existing guard:
// re-registering a histogram under the same name — even with different
// bounds — hands back the first collector instead of panicking or
// resetting counts.
func TestHistogramDuplicateRegistration(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", []float64{1, 2, 3})
	h1.Observe(1)
	h2 := r.Histogram("h", []float64{100}) // different bounds: first wins
	if h1 != h2 {
		t.Fatal("duplicate registration returned a different collector")
	}
	if got := len(h2.Snapshot().Bounds); got != 3 {
		t.Fatalf("bounds overwritten: %d", got)
	}
	if c1, c2 := r.Counter("c"), r.Counter("c"); c1 != c2 {
		t.Fatal("duplicate counter registration returned a different collector")
	}
	if g1, g2 := r.Gauge("g"), r.Gauge("g"); g1 != g2 {
		t.Fatal("duplicate gauge registration returned a different collector")
	}
}

// TestNilSafety exercises every nil fast path the hot loops rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", nil).Observe(1)
	if r.CounterValue("c") != 0 || r.Snapshot().Counters == nil {
		t.Error("nil registry must snapshot empty")
	}
	var o *Observer
	o.Counter("c").Add(2)
	o.Gauge("g").Set(2)
	o.Histogram("h", nil).Observe(2)
	if o.Logger() == nil || o.Logger().Enabled(nil, 0) {
		t.Error("nil observer logger must be the disabled nop")
	}
	o.Tracer().Event("e", 0, 1)
	o.Tracer().Start("s", 0).End(1)
	if err := o.Tracer().Close(); err != nil {
		t.Error(err)
	}
}

package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use; a nil *Counter is a valid no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric holding the last set value. All methods are
// safe for concurrent use; a nil *Gauge is a valid no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds ("le" semantics): an observation lands in the first bucket
// whose bound is >= the value; values above the last bound land in an
// implicit overflow bucket. All methods are safe for concurrent use; a
// nil *Histogram is a valid no-op.
type Histogram struct {
	bounds  []float64 // sorted, finite upper bounds
	counts  []int64   // len(bounds)+1; accessed atomically
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	atomic.AddInt64(&h.counts[i], 1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough copy of a histogram: Bounds
// holds the finite upper bounds and Counts one extra trailing overflow
// bucket. P50/P90/P99 are bucket-interpolated quantile estimates (see
// Quantile); they are 0 when the histogram is empty.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// holding the target rank and interpolating linearly inside it, the same
// estimate Prometheus's histogram_quantile computes. The first bucket's
// lower edge is taken as 0 (or its own bound when that is negative), and
// ranks landing in the overflow bucket report the last finite bound — the
// estimate cannot exceed what the buckets resolve. An empty histogram
// reports 0 (not NaN, which would poison JSON encoding).
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, bound := range s.Bounds {
		prev := cum
		cum += s.Counts[i]
		if float64(cum) < rank {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		} else if bound < 0 {
			lower = bound
		}
		if s.Counts[i] == 0 {
			return bound
		}
		return lower + (bound-lower)*(rank-float64(prev))/float64(s.Counts[i])
	}
	return s.Bounds[len(s.Bounds)-1] // rank fell in the overflow bucket
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = atomic.LoadInt64(&h.counts[i])
	}
	s.P50, s.P90, s.P99 = s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99)
	return s
}

// Registry is a concurrency-safe namespace of metrics, created on first
// use. A nil *Registry is a valid disabled registry: its accessors
// return nil metrics.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// finite bucket bounds on first use. The first registration's bounds
// win; later calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// CounterValue returns the named counter's value without creating it.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counters[name].Value()
}

// WriteJSON dumps the registry as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

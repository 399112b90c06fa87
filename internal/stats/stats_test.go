package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Count() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d, want 8", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	w.Reset()
	if w.Count() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	prop := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip pathological inputs
			}
		}
		var w Welford
		var sum float64
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		if len(xs) == 0 {
			return w.Mean() == 0
		}
		naive := sum / float64(len(xs))
		return math.Abs(w.Mean()-naive) < 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 10)
	tw.Set(2*time.Second, 20) // 10 held for 2s
	tw.Set(4*time.Second, 0)  // 20 held for 2s
	if got := tw.Mean(); math.Abs(got-15) > 1e-9 {
		t.Errorf("Mean = %v, want 15", got)
	}
	tw.Flush(8 * time.Second) // 0 held for 4s -> mean (20+40)/8 = 7.5
	if got := tw.Mean(); math.Abs(got-7.5) > 1e-9 {
		t.Errorf("Mean after flush = %v, want 7.5", got)
	}
	if tw.Last() != 0 {
		t.Errorf("Last = %v, want 0", tw.Last())
	}
}

func TestTimeWeightedBeforeAnyElapsed(t *testing.T) {
	var tw TimeWeighted
	tw.Set(5*time.Second, 42)
	if tw.Mean() != 42 {
		t.Errorf("Mean with no elapsed time = %v, want last value 42", tw.Mean())
	}
}

func TestTimeWeightedIgnoresPastSets(t *testing.T) {
	var tw TimeWeighted
	tw.Set(10*time.Second, 1)
	tw.Set(5*time.Second, 99) // in the past: ignored
	tw.Flush(20 * time.Second)
	if got := tw.Mean(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Mean = %v, want 1 (past set ignored)", got)
	}
}

func TestTimeWeightedReset(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 100)
	tw.Flush(10 * time.Second)
	tw.Reset(10*time.Second, 5)
	tw.Flush(20 * time.Second)
	if got := tw.Mean(); math.Abs(got-5) > 1e-9 {
		t.Errorf("Mean after reset = %v, want 5", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) should be 0")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
	if got := Quantile(xs, 0.3); math.Abs(got-3) > 1e-9 {
		t.Errorf("Quantile(0.3) = %v, want 3", got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestMeanAbsPctError(t *testing.T) {
	actual := []float64{100, 200, 0}
	pred := []float64{110, 180, 5}
	// zero actual skipped; errors are 10% and 10% -> 10%.
	if got := MeanAbsPctError(actual, pred); math.Abs(got-10) > 1e-9 {
		t.Errorf("MAPE = %v, want 10", got)
	}
	if MeanAbsPctError([]float64{0}, []float64{1}) != 0 {
		t.Error("MAPE with all-zero actuals should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	MeanAbsPctError([]float64{1}, []float64{1, 2})
}

func TestRMSE(t *testing.T) {
	if RMSE(nil, nil) != 0 {
		t.Error("RMSE of empty should be 0")
	}
	got := RMSE([]float64{0, 0}, []float64{3, 4})
	want := math.Sqrt(12.5)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestQuantileSortedProperty(t *testing.T) {
	prop := func(xs []float64, q float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		if math.IsNaN(q) {
			return true
		}
		qq := math.Mod(math.Abs(q), 1)
		got := Quantile(xs, qq)
		if len(xs) == 0 {
			return got == 0
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSparkline(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		width  int
		want   string
	}{
		{"empty", nil, 4, ""},
		{"zero width", []float64{1, 2}, 0, ""},
		{"flat", []float64{3, 3, 3}, 3, "   "},
		{"identity", []float64{0, 4, 8}, 3, " ▄█"},
		{"width > len repeats samples", []float64{0, 8}, 4, "  ██"},
		{"width < len averages buckets", []float64{0, 0, 8, 8}, 2, " █"},
	}
	for _, c := range cases {
		if got := Sparkline(c.values, c.width); got != c.want {
			t.Errorf("%s: Sparkline(%v, %d) = %q, want %q", c.name, c.values, c.width, got, c.want)
		}
	}
}

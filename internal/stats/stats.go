// Package stats provides small statistical helpers shared by the simulators,
// models, and experiment harness: streaming moments, time-weighted averages,
// percentiles, and error metrics.
package stats

import (
	"math"
	"sort"
	"strings"
	"time"
)

// Welford accumulates streaming mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean, or zero when empty.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or zero for fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Reset discards all observations.
func (w *Welford) Reset() { *w = Welford{} }

// TimeWeighted accumulates a time-weighted average of a piecewise-constant
// signal, e.g. the number of jobs in a queue or instantaneous watts. Call
// Set every time the signal changes; the value in effect between two Set
// calls is weighted by the elapsed virtual time.
type TimeWeighted struct {
	started  bool
	lastAt   time.Duration
	lastVal  float64
	weighted float64
	elapsed  time.Duration
}

// Set records that the signal takes value v from time at onward.
func (t *TimeWeighted) Set(at time.Duration, v float64) {
	if t.started && at > t.lastAt {
		dt := at - t.lastAt
		t.weighted += t.lastVal * dt.Seconds()
		t.elapsed += dt
	}
	if !t.started || at >= t.lastAt {
		t.lastAt = at
		t.lastVal = v
		t.started = true
	}
}

// Mean returns the time-weighted mean up to (and including) the instant
// flushed by the most recent Set call, or up to now if provided via Flush.
func (t *TimeWeighted) Mean() float64 {
	if t.elapsed <= 0 {
		return t.lastVal
	}
	return t.weighted / t.elapsed.Seconds()
}

// Flush extends the accumulation to time at without changing the value.
func (t *TimeWeighted) Flush(at time.Duration) { t.Set(at, t.lastVal) }

// Last returns the most recently set value.
func (t *TimeWeighted) Last() float64 { return t.lastVal }

// Reset restarts the accumulator at time at with value v.
func (t *TimeWeighted) Reset(at time.Duration, v float64) {
	*t = TimeWeighted{}
	t.Set(at, v)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It returns zero for an empty slice.
// The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or zero when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanAbsPctError returns the mean absolute percentage error of predictions
// vs actuals, in percent. Pairs whose actual value is zero are skipped. The
// slices must have equal length.
func MeanAbsPctError(actual, predicted []float64) float64 {
	if len(actual) != len(predicted) {
		panic("stats: MeanAbsPctError length mismatch")
	}
	var sum float64
	var n int
	for i, a := range actual {
		if a == 0 {
			continue
		}
		sum += math.Abs(predicted[i]-a) / math.Abs(a)
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// NormMeanAbsError returns the mean absolute error normalized by the mean
// magnitude of the actual series, in percent. Unlike MeanAbsPctError it is
// not dominated by near-zero actual values. It returns zero when the actual
// series has zero mean magnitude.
func NormMeanAbsError(actual, predicted []float64) float64 {
	if len(actual) != len(predicted) {
		panic("stats: NormMeanAbsError length mismatch")
	}
	var errSum, magSum float64
	for i, a := range actual {
		errSum += math.Abs(predicted[i] - a)
		magSum += math.Abs(a)
	}
	if magSum == 0 {
		return 0
	}
	return 100 * errSum / magSum
}

// RMSE returns the root-mean-square error between two equal-length series.
func RMSE(actual, predicted []float64) float64 {
	if len(actual) != len(predicted) {
		panic("stats: RMSE length mismatch")
	}
	if len(actual) == 0 {
		return 0
	}
	var sum float64
	for i := range actual {
		d := predicted[i] - actual[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(actual)))
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// sparkLevels is the sparkline ramp, lowest level blank.
var sparkLevels = []rune(" ▁▂▃▄▅▆▇█")

// Sparkline renders values as a width-character unicode sparkline scaled
// to the plotted range. Values are averaged into width equal buckets
// (width > len(values) repeats samples); a flat series renders at the
// lowest, blank level. It returns "" for no values or width <= 0.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	buckets := make([]float64, width)
	for i := range buckets {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range values[lo:hi] {
			sum += v
		}
		buckets[i] = sum / float64(hi-lo)
	}
	mn, mx := buckets[0], buckets[0]
	for _, v := range buckets {
		mn = min(mn, v)
		mx = max(mx, v)
	}
	var b strings.Builder
	for _, v := range buckets {
		idx := 0
		if mx > mn {
			idx = int((v - mn) / (mx - mn) * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

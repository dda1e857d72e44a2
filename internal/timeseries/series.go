// Package timeseries provides the time-series primitives shared by every
// predictor in this repository: the Series type with interval
// (re-)aggregation, train/validation/test partitioning, sliding-window
// supervised datasets, feature scalers, accuracy metrics and basic
// autocorrelation analysis.
//
// Terminology follows the paper: a series records the Job Arrival Rate
// (JAR) — the number of jobs or requests that arrived in each fixed-length
// time interval.
package timeseries

import (
	"fmt"
	"time"
)

// Series is a univariate time series of JAR observations at a fixed
// interval length.
type Series struct {
	Name     string
	Interval time.Duration
	Values   []float64
}

// NewSeries constructs a named series. The values slice is used directly
// (not copied).
func NewSeries(name string, interval time.Duration, values []float64) *Series {
	return &Series{Name: name, Interval: interval, Values: values}
}

// Len returns the number of intervals in the series.
func (s *Series) Len() int { return len(s.Values) }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Name: s.Name, Interval: s.Interval, Values: v}
}

// Slice returns a sub-series covering [lo, hi).
func (s *Series) Slice(lo, hi int) *Series {
	if lo < 0 || hi > len(s.Values) || lo > hi {
		panic(fmt.Sprintf("timeseries: Slice[%d:%d] of series with %d values", lo, hi, len(s.Values)))
	}
	return &Series{Name: s.Name, Interval: s.Interval, Values: s.Values[lo:hi]}
}

// Reinterval aggregates the series into coarser intervals by summing the
// JARs of every `factor` consecutive intervals (e.g. 5-minute counts → one
// 30-minute count with factor 6). A trailing partial bucket is dropped so
// every output interval covers exactly factor input intervals.
func (s *Series) Reinterval(factor int) (*Series, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("timeseries: Reinterval factor must be positive, got %d", factor)
	}
	if factor == 1 {
		return s.Clone(), nil
	}
	n := len(s.Values) / factor
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < factor; j++ {
			sum += s.Values[i*factor+j]
		}
		out[i] = sum
	}
	return &Series{
		Name:     s.Name,
		Interval: s.Interval * time.Duration(factor),
		Values:   out,
	}, nil
}

// Split holds the three JAR partitions used by the LoadDynamics workflow
// (Fig. 7 of the paper): training data for fitting the model, a
// cross-validation set for hyperparameter optimization, and a test set for
// final accuracy reporting.
type Split struct {
	Train, Validate, Test *Series
}

// DefaultSplit partitions the series 60% / 20% / 20% as in Section IV-A of
// the paper.
func DefaultSplit(s *Series) Split { return SplitFractions(s, 0.6, 0.2) }

// SplitFractions partitions the series into train/validate/test parts with
// the given leading fractions (the test part takes the remainder).
func SplitFractions(s *Series, trainFrac, valFrac float64) Split {
	n := len(s.Values)
	trainEnd := int(float64(n) * trainFrac)
	valEnd := trainEnd + int(float64(n)*valFrac)
	if trainEnd < 0 {
		trainEnd = 0
	}
	if valEnd > n {
		valEnd = n
	}
	if valEnd < trainEnd {
		valEnd = trainEnd
	}
	return Split{
		Train:    s.Slice(0, trainEnd),
		Validate: s.Slice(trainEnd, valEnd),
		Test:     s.Slice(valEnd, n),
	}
}

// Window is one supervised sample: Input holds the n previous JARs
// J_{i-n}..J_{i-1} (oldest first) and Target is J_i.
type Window struct {
	Input  []float64
	Target float64
}

// Windows converts a raw value slice into supervised (history, next)
// samples with history length n. Sample k has Input = values[k : k+n] and
// Target = values[k+n].
func Windows(values []float64, n int) ([]Window, error) {
	if n <= 0 {
		return nil, fmt.Errorf("timeseries: history length must be positive, got %d", n)
	}
	if len(values) <= n {
		return nil, fmt.Errorf("timeseries: need more than %d values to build windows with history %d, got %d", n, n, len(values))
	}
	out := make([]Window, 0, len(values)-n)
	for k := 0; k+n < len(values); k++ {
		out = append(out, Window{Input: values[k : k+n], Target: values[k+n]})
	}
	return out, nil
}

// WindowsWithContext is like Windows but prepends ctx (the tail of an
// earlier partition) so that predictions can be generated for every value
// in values, including the first ones. This mirrors the paper's evaluation:
// the test partition is predicted using history that reaches back into the
// validation/training partitions.
func WindowsWithContext(ctx, values []float64, n int) ([]Window, error) {
	if n <= 0 {
		return nil, fmt.Errorf("timeseries: history length must be positive, got %d", n)
	}
	joined := make([]float64, 0, len(ctx)+len(values))
	joined = append(joined, ctx...)
	joined = append(joined, values...)
	if len(joined) <= n {
		return nil, fmt.Errorf("timeseries: need more than %d combined values, got %d", n, len(joined))
	}
	start := len(ctx) - n // first target index in joined coordinates is start+n
	if start < 0 {
		start = 0
	}
	out := make([]Window, 0, len(values))
	for k := start; k+n < len(joined); k++ {
		out = append(out, Window{Input: joined[k : k+n], Target: joined[k+n]})
	}
	return out, nil
}

package timeseries

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of values (0 for an empty slice).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Std returns the population standard deviation of values.
func Std(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := Mean(values)
	s := 0.0
	for _, v := range values {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(values)))
}

// MAPE returns the mean absolute percentage error 100/n · Σ|pᵢ−aᵢ|/|aᵢ|,
// the paper's accuracy metric. Observations with actual value zero are
// skipped (they would make the metric undefined); if every actual is zero
// an error is returned.
func MAPE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, fmt.Errorf("timeseries: MAPE length mismatch %d vs %d", len(pred), len(actual))
	}
	sum, n := 0.0, 0
	for i, a := range actual {
		if a == 0 {
			continue
		}
		sum += math.Abs((pred[i] - a) / a)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("timeseries: MAPE undefined, all actual values are zero")
	}
	return 100 * sum / float64(n), nil
}

// SMAPE returns the symmetric MAPE 100/n · Σ 2|pᵢ−aᵢ|/(|pᵢ|+|aᵢ|).
func SMAPE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, fmt.Errorf("timeseries: SMAPE length mismatch %d vs %d", len(pred), len(actual))
	}
	sum, n := 0.0, 0
	for i, a := range actual {
		den := math.Abs(pred[i]) + math.Abs(a)
		if den == 0 {
			continue
		}
		sum += 2 * math.Abs(pred[i]-a) / den
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("timeseries: SMAPE undefined on all-zero inputs")
	}
	return 100 * sum / float64(n), nil
}

// RMSE returns the root mean squared error.
func RMSE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, fmt.Errorf("timeseries: RMSE length mismatch %d vs %d", len(pred), len(actual))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("timeseries: RMSE of empty slices")
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred))), nil
}

// MAE returns the mean absolute error.
func MAE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, fmt.Errorf("timeseries: MAE length mismatch %d vs %d", len(pred), len(actual))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("timeseries: MAE of empty slices")
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - actual[i])
	}
	return s / float64(len(pred)), nil
}

// ACF returns the sample autocorrelation function of values for lags
// 0..maxLag inclusive. Lag 0 is always 1 (for non-constant input).
func ACF(values []float64, maxLag int) []float64 {
	n := len(values)
	out := make([]float64, maxLag+1)
	if n == 0 {
		return out
	}
	m := Mean(values)
	var c0 float64
	for _, v := range values {
		c0 += (v - m) * (v - m)
	}
	if c0 == 0 {
		out[0] = 1
		return out
	}
	for lag := 0; lag <= maxLag && lag < n; lag++ {
		var ck float64
		for t := 0; t+lag < n; t++ {
			ck += (values[t] - m) * (values[t+lag] - m)
		}
		out[lag] = ck / c0
	}
	return out
}

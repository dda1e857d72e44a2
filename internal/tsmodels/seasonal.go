package tsmodels

import (
	"fmt"

	"loaddynamics/internal/predictors"
)

// SeasonalNaive forecasts the value one season ago — the standard
// benchmark for seasonal workloads (e.g. Period = one day of intervals).
type SeasonalNaive struct {
	Period int
}

// Name implements predictors.Predictor.
func (s *SeasonalNaive) Name() string { return fmt.Sprintf("snaive(p=%d)", s.Period) }

// Fit implements predictors.Predictor.
func (s *SeasonalNaive) Fit(train []float64) error {
	if s.Period <= 0 {
		return fmt.Errorf("tsmodels: snaive period must be positive, got %d", s.Period)
	}
	if len(train) < s.Period {
		return fmt.Errorf("%w: snaive needs %d values, got %d",
			predictors.ErrInsufficientData, s.Period, len(train))
	}
	return nil
}

// Predict implements predictors.Predictor.
func (s *SeasonalNaive) Predict(history []float64) (float64, error) {
	if s.Period <= 0 {
		return 0, fmt.Errorf("tsmodels: snaive period must be positive, got %d", s.Period)
	}
	if len(history) < s.Period {
		return 0, fmt.Errorf("%w: snaive needs %d values, got %d",
			predictors.ErrInsufficientData, s.Period, len(history))
	}
	return history[len(history)-s.Period], nil
}

// Drift forecasts the last value plus the average historical slope — the
// "drift method" benchmark.
type Drift struct{}

// Name implements predictors.Predictor.
func (d *Drift) Name() string { return "drift" }

// Fit implements predictors.Predictor.
func (d *Drift) Fit(train []float64) error {
	if len(train) < 2 {
		return fmt.Errorf("%w: drift needs 2 values, got %d", predictors.ErrInsufficientData, len(train))
	}
	return nil
}

// Predict implements predictors.Predictor.
func (d *Drift) Predict(history []float64) (float64, error) {
	n := len(history)
	if n < 2 {
		return 0, fmt.Errorf("%w: drift needs 2 values, got %d", predictors.ErrInsufficientData, n)
	}
	slope := (history[n-1] - history[0]) / float64(n-1)
	return history[n-1] + slope, nil
}

// HoltWinters is triple exponential smoothing with additive seasonality —
// level, trend and a seasonal index per phase:
//
//	l_t = α(x_t − s_{t−P}) + (1−α)(l_{t−1} + b_{t−1})
//	b_t = β(l_t − l_{t−1}) + (1−β)b_{t−1}
//	s_t = γ(x_t − l_t) + (1−γ)s_{t−P}
//
// forecast = l + b + s_{t+1−P}. The DES members of the CloudInsight pool
// (HoltDES, BrownDES) handle level+trend; this completes the family for
// strongly seasonal workloads like Wikipedia.
type HoltWinters struct {
	Alpha, Beta, Gamma float64
	Period             int

	level, trend float64
	seasonal     []float64
	phase        int // next phase index into seasonal
	fitted       bool
}

// Name implements predictors.Predictor.
func (h *HoltWinters) Name() string { return fmt.Sprintf("holtwinters(p=%d)", h.Period) }

func (h *HoltWinters) validate() error {
	if h.Alpha <= 0 || h.Alpha > 1 || h.Beta <= 0 || h.Beta > 1 || h.Gamma <= 0 || h.Gamma > 1 {
		return fmt.Errorf("tsmodels: holtwinters parameters must be in (0,1]: %+v", h)
	}
	if h.Period < 2 {
		return fmt.Errorf("tsmodels: holtwinters period must be >= 2, got %d", h.Period)
	}
	return nil
}

// Fit implements predictors.Predictor: it initializes level/trend/seasonal
// from the first two seasons and smooths through the training data.
func (h *HoltWinters) Fit(train []float64) error {
	if err := h.validate(); err != nil {
		return err
	}
	if len(train) < 2*h.Period {
		return fmt.Errorf("%w: holtwinters needs %d values, got %d",
			predictors.ErrInsufficientData, 2*h.Period, len(train))
	}
	p := h.Period
	// Initial level: mean of season 1. Initial trend: average cross-season
	// difference. Initial seasonal indices: season-1 deviations from level.
	var s1 float64
	for _, v := range train[:p] {
		s1 += v
	}
	s1 /= float64(p)
	var s2 float64
	for _, v := range train[p : 2*p] {
		s2 += v
	}
	s2 /= float64(p)

	h.level = s1
	h.trend = (s2 - s1) / float64(p)
	h.seasonal = make([]float64, p)
	for i := 0; i < p; i++ {
		h.seasonal[i] = train[i] - s1
	}
	h.phase = 0
	h.fitted = true
	for _, v := range train {
		h.update(v)
	}
	return nil
}

// update advances the smoother by one observation.
func (h *HoltWinters) update(x float64) {
	i := h.phase % h.Period
	sOld := h.seasonal[i]
	lOld := h.level
	h.level = h.Alpha*(x-sOld) + (1-h.Alpha)*(lOld+h.trend)
	h.trend = h.Beta*(h.level-lOld) + (1-h.Beta)*h.trend
	h.seasonal[i] = h.Gamma*(x-h.level) + (1-h.Gamma)*sOld
	h.phase++
}

// Predict implements predictors.Predictor. The smoother's internal state
// tracks the training data; Predict replays any history beyond what it has
// seen (walk-forward usage appends one value per step, so the replay is
// O(1) amortized) and forecasts one step ahead.
func (h *HoltWinters) Predict(history []float64) (float64, error) {
	if !h.fitted {
		return 0, fmt.Errorf("tsmodels: holtwinters used before Fit")
	}
	// Replay unseen values. The phase counter doubles as "observations
	// consumed" because Fit resets it to 0 before replaying train.
	for h.phase < len(history) {
		h.update(history[h.phase])
	}
	return h.level + h.trend + h.seasonal[h.phase%h.Period], nil
}

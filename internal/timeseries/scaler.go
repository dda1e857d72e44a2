package timeseries

import (
	"fmt"
	"math"
)

// Scaler normalizes raw JAR values into a range suitable for neural-network
// training and maps predictions back to the original scale.
type Scaler interface {
	// Fit learns the scaling parameters from values.
	Fit(values []float64)
	// Transform maps a raw value to the scaled domain.
	Transform(v float64) float64
	// Inverse maps a scaled value back to the raw domain.
	Inverse(v float64) float64
	// Name identifies the scaler for reports.
	Name() string
}

// TransformAll applies s.Transform to every element, returning a new slice.
func TransformAll(s Scaler, values []float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = s.Transform(v)
	}
	return out
}

// MinMaxScaler maps [min, max] → [0, 1]. Degenerate (constant) inputs map
// everything to 0.
type MinMaxScaler struct {
	Min, Max float64
	fitted   bool
}

// Fit implements Scaler.
func (m *MinMaxScaler) Fit(values []float64) {
	if len(values) == 0 {
		m.Min, m.Max, m.fitted = 0, 1, true
		return
	}
	m.Min, m.Max = values[0], values[0]
	for _, v := range values {
		if v < m.Min {
			m.Min = v
		}
		if v > m.Max {
			m.Max = v
		}
	}
	m.fitted = true
}

// Transform implements Scaler.
func (m *MinMaxScaler) Transform(v float64) float64 {
	m.mustFitted()
	if m.Max == m.Min {
		return 0
	}
	return (v - m.Min) / (m.Max - m.Min)
}

// Inverse implements Scaler.
func (m *MinMaxScaler) Inverse(v float64) float64 {
	m.mustFitted()
	return v*(m.Max-m.Min) + m.Min
}

// Name implements Scaler.
func (m *MinMaxScaler) Name() string { return "minmax" }

func (m *MinMaxScaler) mustFitted() {
	if !m.fitted {
		panic("timeseries: MinMaxScaler used before Fit")
	}
}

// ZScoreScaler standardizes values to zero mean and unit variance.
type ZScoreScaler struct {
	Mean, Std float64
	fitted    bool
}

// Fit implements Scaler.
func (z *ZScoreScaler) Fit(values []float64) {
	z.Mean = Mean(values)
	z.Std = Std(values)
	if z.Std == 0 || math.IsNaN(z.Std) {
		z.Std = 1
	}
	z.fitted = true
}

// Transform implements Scaler.
func (z *ZScoreScaler) Transform(v float64) float64 {
	z.mustFitted()
	return (v - z.Mean) / z.Std
}

// Inverse implements Scaler.
func (z *ZScoreScaler) Inverse(v float64) float64 {
	z.mustFitted()
	return v*z.Std + z.Mean
}

// Name implements Scaler.
func (z *ZScoreScaler) Name() string { return "zscore" }

func (z *ZScoreScaler) mustFitted() {
	if !z.fitted {
		panic("timeseries: ZScoreScaler used before Fit")
	}
}

// NewScaler returns a scaler by name ("minmax" or "zscore").
func NewScaler(name string) (Scaler, error) {
	switch name {
	case "minmax":
		return &MinMaxScaler{}, nil
	case "zscore":
		return &ZScoreScaler{}, nil
	default:
		return nil, fmt.Errorf("timeseries: unknown scaler %q", name)
	}
}

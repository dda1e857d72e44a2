package cloudscale

import (
	"fmt"
	"math"

	"loaddynamics/internal/predictors"
)

// PeriodicityThreshold is the spectral peak-to-average power ratio above
// which CloudScale trusts the FFT-detected repeating pattern.
const PeriodicityThreshold = 10.0

// CloudScale is the FFT + discrete-time Markov chain predictor. It
// satisfies predictors.Predictor.
type CloudScale struct {
	// States is the number of quantization bins for the Markov chain
	// (default 8).
	States int

	period     int
	usePattern bool // whether the periodic signature is trusted
	// Markov state.
	lo, binWidth float64
	transition   [][]float64 // row-stochastic transition matrix
	binMeans     []float64   // representative value per bin
	fitted       bool
}

// New returns a CloudScale predictor with default settings.
func New() *CloudScale { return &CloudScale{States: 8} }

// Name implements predictors.Predictor.
func (c *CloudScale) Name() string { return "cloudscale" }

// Fit implements predictors.Predictor: it runs the spectral analysis and
// estimates the Markov transition matrix on the training data.
func (c *CloudScale) Fit(train []float64) error {
	if c.States <= 1 {
		return fmt.Errorf("cloudscale: States must be >= 2, got %d", c.States)
	}
	if len(train) < 8 {
		return fmt.Errorf("%w: cloudscale needs at least 8 values, got %d",
			predictors.ErrInsufficientData, len(train))
	}
	period, ratio, err := DominantPeriod(train)
	if err != nil {
		return err
	}
	if period >= 2 && period < len(train)/2 {
		// The FFT bin grid quantizes the period (especially after
		// zero-padding); refine against the sample autocorrelation.
		period = refinePeriod(train, period)
	}
	c.period = period
	c.usePattern = ratio >= PeriodicityThreshold && period >= 2 && period < len(train)

	// Quantize for the Markov chain.
	lo, hi := train[0], train[0]
	for _, v := range train {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	c.lo = lo
	c.binWidth = (hi - lo) / float64(c.States)

	counts := make([][]float64, c.States)
	for i := range counts {
		counts[i] = make([]float64, c.States)
	}
	binSum := make([]float64, c.States)
	binN := make([]float64, c.States)
	prev := c.bin(train[0])
	binSum[prev] += train[0]
	binN[prev]++
	for _, v := range train[1:] {
		b := c.bin(v)
		counts[prev][b]++
		binSum[b] += v
		binN[b]++
		prev = b
	}
	c.transition = make([][]float64, c.States)
	c.binMeans = make([]float64, c.States)
	for i := 0; i < c.States; i++ {
		rowSum := 0.0
		for _, v := range counts[i] {
			rowSum += v
		}
		c.transition[i] = make([]float64, c.States)
		if rowSum > 0 {
			for j, v := range counts[i] {
				c.transition[i][j] = v / rowSum
			}
		} else {
			c.transition[i][i] = 1 // unseen state: assume it persists
		}
		if binN[i] > 0 {
			c.binMeans[i] = binSum[i] / binN[i]
		} else {
			c.binMeans[i] = c.lo + (float64(i)+0.5)*c.binWidth
		}
	}
	c.fitted = true
	return nil
}

func (c *CloudScale) bin(v float64) int {
	b := int((v - c.lo) / c.binWidth)
	if b < 0 {
		b = 0
	}
	if b >= c.States {
		b = c.States - 1
	}
	return b
}

// Predict implements predictors.Predictor. With a trusted periodic
// signature the forecast is the value one period ago scaled by the recent
// level drift; otherwise the Markov chain's expected next value from the
// current quantized state is used.
func (c *CloudScale) Predict(history []float64) (float64, error) {
	if !c.fitted {
		return 0, fmt.Errorf("cloudscale: used before Fit")
	}
	if len(history) == 0 {
		return 0, fmt.Errorf("%w: cloudscale prediction from empty history", predictors.ErrInsufficientData)
	}
	if c.usePattern && len(history) >= c.period {
		base := history[len(history)-c.period]
		// Level-drift correction: ratio of the mean of the last full period
		// to the mean of the period before it. Full-period means are
		// phase-insensitive; the ratio is clamped to avoid blow-ups on
		// near-zero bases.
		drift := 1.0
		if len(history) >= 2*c.period {
			recent := mean(history[len(history)-c.period:])
			past := mean(history[len(history)-2*c.period : len(history)-c.period])
			if past > 0 && recent > 0 {
				drift = math.Min(2, math.Max(0.5, recent/past))
			}
		}
		return base * drift, nil
	}
	state := c.bin(history[len(history)-1])
	v := 0.0
	for j, p := range c.transition[state] {
		v += p * c.binMeans[j]
	}
	return v, nil
}

// Period returns the detected dominant period in intervals.
func (c *CloudScale) Period() int { return c.period }

// refinePeriod searches lags around the FFT candidate for the maximum of
// the sample autocorrelation and returns the best lag.
func refinePeriod(signal []float64, p0 int) int {
	m := mean(signal)
	var c0 float64
	for _, v := range signal {
		c0 += (v - m) * (v - m)
	}
	if c0 == 0 {
		return p0
	}
	acfAt := func(lag int) float64 {
		var ck float64
		for t := 0; t+lag < len(signal); t++ {
			ck += (signal[t] - m) * (signal[t+lag] - m)
		}
		return ck / c0
	}
	best, bestACF := p0, math.Inf(-1)
	lo := p0 - 3
	if lo < 2 {
		lo = 2
	}
	hi := p0 + 3
	if hi >= len(signal) {
		hi = len(signal) - 1
	}
	for p := lo; p <= hi; p++ {
		if a := acfAt(p); a > bestACF {
			bestACF = a
			best = p
		}
	}
	return best
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

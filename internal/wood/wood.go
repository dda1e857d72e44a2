// Package wood implements the Wood et al. baseline (Middleware 2008) as
// described in Section IV-A of the LoadDynamics paper: robust linear
// regression fitted with iteratively reweighted least squares (Tukey
// bisquare weights), refined online as new observations arrive.
//
// Two variants are provided. Wood (the paper's baseline) robustly fits a
// linear trend of the JAR over a sliding window of recent intervals and
// extrapolates one step — simple and adaptive, but blind to seasonality,
// which is why the paper reports high errors for it. RobustAR is a
// stronger library extra: the same robust machinery applied to an
// autoregressive lag design with Mallows-style leverage protection.
package wood

import (
	"fmt"
	"math"
	"sort"

	"loaddynamics/internal/mat"
	"loaddynamics/internal/predictors"
)

// RobustAR is a leverage-protected robust autoregressive model: IRLS with
// Tukey bisquare weights over a lag design, with Mallows-style leverage
// downweighting. It is a stronger robust forecaster than the paper's Wood
// baseline and is provided as a library extra. It satisfies
// predictors.Predictor.
type RobustAR struct {
	// Lag is the autoregressive order of the linear model.
	Lag int
	// Iterations of IRLS reweighting (10 is the classical choice).
	Iterations int
	// TuningConstant is Tukey's bisquare constant in units of the robust
	// scale estimate (4.685 is the classical 95%-efficiency value).
	TuningConstant float64

	coef []float64 // [c, w₁..w_Lag]
}

// Name implements predictors.Predictor.
func (w *RobustAR) Name() string { return "robust-ar" }

// Fit implements predictors.Predictor: IRLS with bisquare weights on the
// lag design matrix.
func (w *RobustAR) Fit(train []float64) error {
	if w.Lag <= 0 || w.Iterations <= 0 || w.TuningConstant <= 0 {
		return fmt.Errorf("wood: needs positive Lag/Iterations/TuningConstant: %+v", w)
	}
	rows := len(train) - w.Lag
	if rows < w.Lag+2 {
		return fmt.Errorf("%w: wood needs at least %d values, got %d",
			predictors.ErrInsufficientData, 2*w.Lag+2, len(train))
	}
	d := w.Lag + 1
	x := mat.New(rows, d)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := i + w.Lag
		x.Set(i, 0, 1)
		for j := 1; j <= w.Lag; j++ {
			x.Set(i, j, train[t-j])
		}
		y[i] = train[t]
	}

	// Mallows-type leverage weights: rows whose lag regressors are gross
	// outliers (robust z-score via median/MAD per column) are downweighted
	// regardless of their residual, protecting the fit from leverage points
	// — an AR design inherits every series outlier as a regressor.
	lev := leverageWeights(x)

	// Initial estimate: leverage-weighted least squares.
	coef, err := weightedLS(x, y, lev)
	if err != nil {
		return fmt.Errorf("wood: initial fit: %w", err)
	}

	for it := 0; it < w.Iterations; it++ {
		// Residuals and robust scale (MAD).
		resid := make([]float64, rows)
		absResid := make([]float64, rows)
		for i := 0; i < rows; i++ {
			pred := 0.0
			for j := 0; j < d; j++ {
				pred += coef[j] * x.At(i, j)
			}
			resid[i] = y[i] - pred
			absResid[i] = math.Abs(resid[i])
		}
		scale := medianOf(absResid) / 0.6745
		if scale <= 0 {
			break // perfect fit
		}
		// Bisquare weights.
		c := w.TuningConstant * scale
		wts := make([]float64, rows)
		for i := 0; i < rows; i++ {
			u := resid[i] / c
			if math.Abs(u) < 1 {
				t := 1 - u*u
				wts[i] = t * t * lev[i] // bisquare × leverage weight
			}
		}
		next, err := weightedLS(x, y, wts)
		if err != nil {
			break // keep the previous estimate
		}
		delta := 0.0
		for j := range next {
			delta += math.Abs(next[j] - coef[j])
		}
		coef = next
		if delta < 1e-10 {
			break
		}
	}
	w.coef = coef
	return nil
}

// Predict implements predictors.Predictor.
func (w *RobustAR) Predict(history []float64) (float64, error) {
	if w.coef == nil {
		return 0, fmt.Errorf("wood: used before Fit")
	}
	if len(history) < w.Lag {
		return 0, fmt.Errorf("%w: wood needs %d recent values, got %d",
			predictors.ErrInsufficientData, w.Lag, len(history))
	}
	v := w.coef[0]
	for j := 1; j <= w.Lag; j++ {
		v += w.coef[j] * history[len(history)-j]
	}
	return v, nil
}

// weightedLS solves min Σ wᵢ(xᵢ·β − yᵢ)² by scaling rows with √wᵢ.
func weightedLS(x *mat.Matrix, y []float64, wts []float64) ([]float64, error) {
	rows, d := x.Rows, x.Cols
	wx := mat.New(rows, d)
	wy := make([]float64, rows)
	for i := 0; i < rows; i++ {
		s := math.Sqrt(wts[i])
		for j := 0; j < d; j++ {
			wx.Set(i, j, x.At(i, j)*s)
		}
		wy[i] = y[i] * s
	}
	return mat.LeastSquares(wx, wy, 1e-8)
}

// leverageWeights computes a Mallows-style weight per design row from the
// robust z-scores of its non-intercept entries: rows with |z| ≤ 3 in every
// column get weight 1, grosser rows decay as (3/maxz)².
func leverageWeights(x *mat.Matrix) []float64 {
	rows, d := x.Rows, x.Cols
	// Per-column robust location/scale (skip the intercept column 0).
	med := make([]float64, d)
	mad := make([]float64, d)
	col := make([]float64, rows)
	for j := 1; j < d; j++ {
		for i := 0; i < rows; i++ {
			col[i] = x.At(i, j)
		}
		med[j] = medianOf(col)
		for i := 0; i < rows; i++ {
			col[i] = math.Abs(col[i] - med[j])
		}
		mad[j] = medianOf(col) / 0.6745
	}
	out := make([]float64, rows)
	for i := 0; i < rows; i++ {
		maxZ := 0.0
		for j := 1; j < d; j++ {
			if mad[j] <= 0 {
				continue
			}
			z := math.Abs(x.At(i, j)-med[j]) / mad[j]
			if z > maxZ {
				maxZ = z
			}
		}
		if maxZ <= 3 {
			out[i] = 1
		} else {
			out[i] = 9 / (maxZ * maxZ)
		}
	}
	return out
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

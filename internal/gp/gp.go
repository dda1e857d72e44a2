// Package gp implements Gaussian-process regression, the probabilistic
// model Bayesian Optimization uses to model the mapping from LSTM
// hyperparameters to cross-validation error (Section III-A of the paper,
// mirroring the GPyOpt implementation the authors used).
package gp

import (
	"fmt"
	"math"
	"sync"
	"time"

	"loaddynamics/internal/mat"
	"loaddynamics/internal/obs"
)

// Package metrics (obs.Default): fit/append counters expose how often the
// surrogate is rebuilt versus incrementally extended, predictPoints counts
// posterior evaluations, and fitSeconds times each O(n³) factorization —
// the number BO round latency is most sensitive to.
var (
	fitCount      = obs.Default.Counter("gp.fits")
	appendCount   = obs.Default.Counter("gp.appends")
	predictPoints = obs.Default.Counter("gp.predict_points")
	fitSeconds    = obs.Default.Histogram("gp.fit_seconds")
)

// Kernel is a positive-definite covariance function over feature vectors.
type Kernel interface {
	Eval(a, b []float64) float64
	Name() string
}

// RBF is the squared-exponential kernel
// k(a,b) = σ²·exp(−‖a−b‖² / (2ℓ²)).
type RBF struct {
	LengthScale float64
	Variance    float64
}

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	d2 := sqDist(a, b)
	return k.Variance * math.Exp(-d2/(2*k.LengthScale*k.LengthScale))
}

// Name implements Kernel.
func (k RBF) Name() string { return "rbf" }

// Matern52 is the Matérn ν=5/2 kernel, GPyOpt's default for Bayesian
// optimization:
// k(a,b) = σ²·(1 + √5 r/ℓ + 5r²/(3ℓ²))·exp(−√5 r/ℓ).
type Matern52 struct {
	LengthScale float64
	Variance    float64
}

// Eval implements Kernel.
func (k Matern52) Eval(a, b []float64) float64 {
	r := math.Sqrt(sqDist(a, b))
	s := math.Sqrt(5) * r / k.LengthScale
	return k.Variance * (1 + s + s*s/3) * math.Exp(-s)
}

// Name implements Kernel.
func (k Matern52) Name() string { return "matern52" }

func sqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("gp: dimension mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// GP is a fitted Gaussian-process posterior.
type GP struct {
	kernel Kernel
	noise  float64
	x      [][]float64
	yn     []float64   // standardized training targets
	alpha  []float64   // K⁻¹·ỹ on the normalized targets
	chol   *mat.Matrix // lower Cholesky factor of K + noise·I
	yMean  float64
	yStd   float64
	lml    float64 // log marginal likelihood of the normalized targets
}

// Fit conditions a GP with the given kernel and observation-noise variance
// on the data. Targets are standardized internally for numerical
// conditioning; predictions are returned on the original scale.
func Fit(x [][]float64, y []float64, kernel Kernel, noise float64) (*GP, error) {
	start := time.Now()
	defer func() {
		fitCount.Inc()
		fitSeconds.Observe(time.Since(start).Seconds())
	}()
	if len(x) == 0 {
		return nil, fmt.Errorf("gp: Fit with no observations")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("gp: %d inputs but %d targets", len(x), len(y))
	}
	if noise < 0 {
		return nil, fmt.Errorf("gp: negative noise %v", noise)
	}
	n := len(x)
	dim := len(x[0])
	for i, xi := range x {
		if len(xi) != dim {
			return nil, fmt.Errorf("gp: input %d has dimension %d, want %d", i, len(xi), dim)
		}
	}

	yMean, yStd := meanStd(y)
	if yStd == 0 {
		yStd = 1
	}
	yn := make([]float64, n)
	for i, v := range y {
		yn[i] = (v - yMean) / yStd
	}

	k := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := kernel.Eval(x[i], x[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Data[i*n+i] += noise
	}

	var chol *mat.Matrix
	var err error
	jitter := 0.0
	for try := 0; try < 8; try++ {
		kj := k.Clone()
		for i := 0; i < n; i++ {
			kj.Data[i*n+i] += jitter
		}
		chol, err = mat.Cholesky(kj)
		if err == nil {
			break
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
	}
	if err != nil {
		return nil, fmt.Errorf("gp: kernel matrix not positive definite: %w", err)
	}

	alpha := mat.SolveUpperT(chol, mat.SolveLower(chol, yn))

	lml := -0.5 * mat.Dot(yn, alpha)
	for i := 0; i < n; i++ {
		lml -= math.Log(chol.At(i, i))
	}
	lml -= float64(n) / 2 * math.Log(2*math.Pi)

	xs := make([][]float64, n)
	for i := range x {
		xs[i] = append([]float64(nil), x[i]...)
	}
	return &GP{
		kernel: kernel, noise: noise, x: xs, yn: yn, alpha: alpha, chol: chol,
		yMean: yMean, yStd: yStd, lml: lml,
	}, nil
}

// Append returns a new posterior conditioned on the original data plus one
// observation (x, y). The Cholesky factor is extended with a rank-1 border
// update (mat.CholeskyAppendRow) and the weight vector recomputed by two
// triangular solves, so the whole update costs O(n²) instead of the O(n³)
// full refit. The target standardization of the original fit is kept fixed —
// the posterior is exactly the GP that Fit would produce on the extended
// data with that standardization. The receiver is not modified.
func (g *GP) Append(x []float64, y float64) (*GP, error) {
	appendCount.Inc()
	if len(g.x) > 0 && len(x) != len(g.x[0]) {
		return nil, fmt.Errorf("gp: Append input has dimension %d, want %d", len(x), len(g.x[0]))
	}
	n := len(g.x)
	border := make([]float64, n)
	for i, xi := range g.x {
		border[i] = g.kernel.Eval(xi, x)
	}
	diag := g.kernel.Eval(x, x) + g.noise
	chol, err := mat.CholeskyAppendRow(g.chol, border, diag)
	jitter := 0.0
	for try := 0; err != nil && try < 8; try++ {
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
		chol, err = mat.CholeskyAppendRow(g.chol, border, diag+jitter)
	}
	if err != nil {
		return nil, fmt.Errorf("gp: Append: bordered kernel matrix not positive definite: %w", err)
	}

	yn := make([]float64, n+1)
	copy(yn, g.yn)
	yn[n] = (y - g.yMean) / g.yStd
	alpha := mat.SolveUpperT(chol, mat.SolveLower(chol, yn))

	lml := -0.5 * mat.Dot(yn, alpha)
	for i := 0; i <= n; i++ {
		lml -= math.Log(chol.At(i, i))
	}
	lml -= float64(n+1) / 2 * math.Log(2*math.Pi)

	xs := make([][]float64, n+1)
	copy(xs, g.x)
	xs[n] = append([]float64(nil), x...)
	return &GP{
		kernel: g.kernel, noise: g.noise, x: xs, yn: yn, alpha: alpha, chol: chol,
		yMean: g.yMean, yStd: g.yStd, lml: lml,
	}, nil
}

// Predict returns the posterior mean and variance at query point q.
func (g *GP) Predict(q []float64) (mean, variance float64) {
	predictPoints.Inc()
	n := len(g.x)
	ks := make([]float64, n)
	for i, xi := range g.x {
		ks[i] = g.kernel.Eval(xi, q)
	}
	mn := mat.Dot(ks, g.alpha)
	v := mat.SolveLower(g.chol, ks)
	va := g.kernel.Eval(q, q) - mat.Dot(v, v)
	if va < 0 {
		va = 0
	}
	return mn*g.yStd + g.yMean, va * g.yStd * g.yStd
}

// PredictBatch returns the posterior means and variances at every query
// point. It computes the whole cross-covariance matrix once and runs one
// batched triangular solve (mat.SolveLowerBatch) over all queries instead of
// len(qs) independent solves, which is what makes scoring a 512-candidate
// acquisition pool cheap. Results are bit-identical to calling Predict per
// point.
func (g *GP) PredictBatch(qs [][]float64) (means, variances []float64) {
	predictPoints.Add(int64(len(qs)))
	n := len(g.x)
	m := len(qs)
	means = make([]float64, m)
	variances = make([]float64, m)
	if m == 0 {
		return means, variances
	}
	ks := mat.New(m, n)
	for i, q := range qs {
		row := ks.Row(i)
		for j, xj := range g.x {
			row[j] = g.kernel.Eval(xj, q)
		}
	}
	v := mat.SolveLowerBatch(g.chol, ks)
	for i, q := range qs {
		ksRow := ks.Row(i)
		vRow := v.Row(i)
		va := g.kernel.Eval(q, q) - mat.Dot(vRow, vRow)
		if va < 0 {
			va = 0
		}
		means[i] = mat.Dot(ksRow, g.alpha)*g.yStd + g.yMean
		variances[i] = va * g.yStd * g.yStd
	}
	return means, variances
}

// FitAuto fits GPs over a small grid of length scales (on standardized
// inputs the plausible range is fixed) and returns the one with the highest
// log marginal likelihood. This replaces GPyOpt's gradient-based kernel
// hyperparameter optimization with an equally effective search at this
// problem size. The candidate kernels are fitted concurrently — each fit is
// an independent O(n³) factorization — and the winner is selected by
// scanning in scale order, so the result is identical to a serial sweep.
func FitAuto(x [][]float64, y []float64, noise float64) (*GP, error) {
	scales := []float64{0.1, 0.2, 0.5, 1, 2, 5}
	fits := make([]*GP, len(scales))
	var wg sync.WaitGroup
	for i, ls := range scales {
		wg.Add(1)
		go func(i int, ls float64) {
			defer wg.Done()
			g, err := Fit(x, y, Matern52{LengthScale: ls, Variance: 1}, noise)
			if err == nil {
				fits[i] = g
			}
		}(i, ls)
	}
	wg.Wait()
	var best *GP
	for _, g := range fits {
		if g == nil {
			continue
		}
		if best == nil || g.lml > best.lml {
			best = g
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gp: FitAuto failed for every length scale")
	}
	return best, nil
}

func meanStd(v []float64) (float64, float64) {
	if len(v) == 0 {
		return 0, 0
	}
	m := 0.0
	for _, x := range v {
		m += x
	}
	m /= float64(len(v))
	s := 0.0
	for _, x := range v {
		s += (x - m) * (x - m)
	}
	return m, math.Sqrt(s / float64(len(v)))
}

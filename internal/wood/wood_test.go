package wood

import (
	"math"
	"math/rand"
	"testing"

	"loaddynamics/internal/predictors"
)

var (
	_ predictors.Predictor = (*Wood)(nil)
	_ predictors.Predictor = (*RobustAR)(nil)
)

// newRobustAR returns a robust AR model with the classical IRLS settings.
func newRobustAR(lag int) *RobustAR {
	return &RobustAR{Lag: lag, Iterations: 10, TuningConstant: 4.685}
}

func TestRobustARFitsLinearProcessExactly(t *testing.T) {
	// x_t = 3 + 0.6x_{t−1} + 0.2x_{t−2}, noiseless.
	n := 300
	xs := make([]float64, n)
	xs[0], xs[1] = 10, 11
	for i := 2; i < n; i++ {
		xs[i] = 3 + 0.6*xs[i-1] + 0.2*xs[i-2]
	}
	w := newRobustAR(2)
	if err := w.Fit(xs[:250]); err != nil {
		t.Fatal(err)
	}
	got, err := w.Predict(xs[:299])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-xs[299]) > 1e-6*(1+math.Abs(xs[299])) {
		t.Fatalf("forecast = %v, want %v", got, xs[299])
	}
}

func TestRobustARRobustToOutliers(t *testing.T) {
	// Linear process with 5% gross outliers: robust regression should
	// recover coefficients much better than the contamination suggests.
	rng := rand.New(rand.NewSource(2))
	n := 600
	xs := make([]float64, n)
	xs[0], xs[1] = 20, 20
	for i := 2; i < n; i++ {
		xs[i] = 5 + 0.5*xs[i-1] + 0.3*xs[i-2] + 0.2*rng.NormFloat64()
	}
	contaminated := append([]float64(nil), xs...)
	for i := 10; i < n; i += 20 {
		contaminated[i] += 500 // gross outliers
	}
	w := newRobustAR(2)
	if err := w.Fit(contaminated); err != nil {
		t.Fatal(err)
	}
	coef := w.coef
	if math.Abs(coef[1]-0.5) > 0.1 || math.Abs(coef[2]-0.3) > 0.1 {
		t.Fatalf("robust coefficients = %v, want ≈[5 0.5 0.3]", coef)
	}
}

func TestRobustAROutperformsOLSUnderContamination(t *testing.T) {
	// The same contaminated series fitted with 1 IRLS iteration (≈OLS)
	// versus full robustification: full robustness must give a lower
	// coefficient error.
	rng := rand.New(rand.NewSource(7))
	n := 500
	xs := make([]float64, n)
	xs[0] = 30
	for i := 1; i < n; i++ {
		xs[i] = 8 + 0.7*xs[i-1] + 0.3*rng.NormFloat64()
	}
	for i := 15; i < n; i += 25 {
		xs[i] += 300
	}
	coefErr := func(iters int) float64 {
		w := newRobustAR(1)
		w.Iterations = iters
		if err := w.Fit(xs); err != nil {
			t.Fatal(err)
		}
		c := w.coef
		return math.Abs(c[1] - 0.7)
	}
	if robust, ols := coefErr(10), coefErr(1); robust > ols {
		t.Fatalf("robust coefficient error %v worse than near-OLS %v", robust, ols)
	}
}

func TestRobustARValidation(t *testing.T) {
	w := newRobustAR(4)
	if _, err := w.Predict(make([]float64, 10)); err == nil {
		t.Fatal("expected error before Fit")
	}
	if err := w.Fit(make([]float64, 5)); err == nil {
		t.Fatal("expected error for short train")
	}
	w.Iterations = 0
	if err := w.Fit(make([]float64, 100)); err == nil {
		t.Fatal("expected error for zero iterations")
	}
	w = newRobustAR(4)
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i)
	}
	if err := w.Fit(series); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Predict([]float64{1}); err == nil {
		t.Fatal("expected error for short history")
	}
}

func TestRobustARConstantSeries(t *testing.T) {
	series := make([]float64, 60)
	for i := range series {
		series[i] = 42
	}
	w := newRobustAR(3)
	if err := w.Fit(series); err != nil {
		t.Fatal(err)
	}
	got, err := w.Predict(series)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-42) > 1e-6 {
		t.Fatalf("constant forecast = %v, want 42", got)
	}
}

func TestWoodTrendExtrapolatesLinearRamp(t *testing.T) {
	hist := make([]float64, 60)
	for i := range hist {
		hist[i] = 100 + 4*float64(i)
	}
	w := New(16)
	if err := w.Fit(hist); err != nil {
		t.Fatal(err)
	}
	got, err := w.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 + 4*float64(len(hist))
	if math.Abs(got-want) > 1 {
		t.Fatalf("trend forecast = %v, want ≈%v", got, want)
	}
}

func TestWoodTrendIgnoresOutlier(t *testing.T) {
	// A flat series with one gross spike inside the window: the robust fit
	// must stay near the level while a plain mean/OLS would be dragged up.
	hist := make([]float64, 30)
	for i := range hist {
		hist[i] = 50
	}
	hist[25] = 800
	w := New(16)
	got, err := w.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-50) > 5 {
		t.Fatalf("robust trend forecast = %v, want ≈50 despite outlier", got)
	}
}

func TestWoodTrendBlindToSeasonality(t *testing.T) {
	// On a strong sinusoid a windowed trend model must do clearly worse
	// than the RobustAR model — the property that explains the paper's
	// Fig. 2/9 numbers.
	n := 400
	series := make([]float64, n)
	for i := range series {
		series[i] = 1000 + 400*math.Sin(2*math.Pi*float64(i)/48)
	}
	trend := New(16)
	ar := newRobustAR(8)
	if err := ar.Fit(series[:300]); err != nil {
		t.Fatal(err)
	}
	var trendErr, arErr float64
	for tt := 300; tt < n; tt++ {
		tp, err := trend.Predict(series[:tt])
		if err != nil {
			t.Fatal(err)
		}
		ap, err := ar.Predict(series[:tt])
		if err != nil {
			t.Fatal(err)
		}
		trendErr += math.Abs(tp - series[tt])
		arErr += math.Abs(ap - series[tt])
	}
	if trendErr < 5*arErr {
		t.Fatalf("trend model error %v should be far worse than robust AR %v on seasonal data", trendErr, arErr)
	}
}

func TestWoodValidation(t *testing.T) {
	w := New(0)
	if w.Window != 16 {
		t.Fatalf("default window = %d, want 16", w.Window)
	}
	if err := w.Fit([]float64{1, 2}); err == nil {
		t.Fatal("expected error for short train")
	}
	if _, err := w.Predict([]float64{1, 2}); err == nil {
		t.Fatal("expected error for short history")
	}
	w.Iterations = 0
	if err := w.Fit(make([]float64, 50)); err == nil {
		t.Fatal("expected error for zero iterations")
	}
	if _, err := w.Predict(make([]float64, 50)); err == nil {
		t.Fatal("expected predict error for zero iterations")
	}
}

func TestWoodShortHistoryUsesWhatExists(t *testing.T) {
	w := New(16)
	got, err := w.Predict([]float64{10, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1 {
		t.Fatalf("forecast = %v, want ≈10", got)
	}
}

func TestMedianOf(t *testing.T) {
	if medianOf(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
	if medianOf([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if medianOf([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median wrong")
	}
}

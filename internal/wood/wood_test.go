package wood

import (
	"math"
	"testing"

	"loaddynamics/internal/predictors"
)

var _ predictors.Predictor = (*Wood)(nil)

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
	// than a forecast that sees the season (here the value one period
	// back) — the property that explains the paper's Fig. 2/9 numbers.
	const n, period = 400, 48
	series := make([]float64, n)
	for i := range series {
		series[i] = 1000 + 400*math.Sin(2*math.Pi*float64(i)/period)
	}
	trend := New(16)
	var trendErr, seasonalErr float64
	for tt := 300; tt < n; tt++ {
		tp, err := trend.Predict(series[:tt])
		if err != nil {
			t.Fatal(err)
		}
		trendErr += math.Abs(tp - series[tt])
		seasonalErr += math.Abs(series[tt-period] - series[tt])
	}
	if mae := trendErr / (n - 300); mae < 20 || trendErr < 5*seasonalErr {
		t.Fatalf("trend model error %v (mean %v) should be far worse than the seasonal forecast's %v", trendErr, mae, seasonalErr)
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

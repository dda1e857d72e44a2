package tsmodels

import (
	"math"
	"math/rand"
	"testing"

	"loaddynamics/internal/predictors"
)

var (
	_ predictors.Predictor = (*SeasonalNaive)(nil)
	_ predictors.Predictor = (*Drift)(nil)
	_ predictors.Predictor = (*HoltWinters)(nil)
)

func TestSeasonalNaive(t *testing.T) {
	s := &SeasonalNaive{Period: 4}
	hist := []float64{1, 2, 3, 4, 5, 6, 7}
	if err := s.Fit(hist); err != nil {
		t.Fatal(err)
	}
	got, err := s.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 { // one period (4) back from the next position
		t.Fatalf("snaive = %v, want 4", got)
	}
	bad := &SeasonalNaive{Period: 0}
	if err := bad.Fit(hist); err == nil {
		t.Fatal("expected error for period 0")
	}
	if _, err := (&SeasonalNaive{Period: 10}).Predict(hist); err == nil {
		t.Fatal("expected error for short history")
	}
}

func TestSeasonalNaivePerfectOnPeriodicSeries(t *testing.T) {
	var series []float64
	for i := 0; i < 15; i++ {
		series = append(series, 10, 30, 20, 40)
	}
	s := &SeasonalNaive{Period: 4}
	if err := s.Fit(series); err != nil {
		t.Fatal(err)
	}
	for cut := 40; cut < len(series); cut++ {
		got, err := s.Predict(series[:cut])
		if err != nil {
			t.Fatal(err)
		}
		if got != series[cut] {
			t.Fatalf("cut %d: snaive = %v, want %v", cut, got, series[cut])
		}
	}
}

func TestDrift(t *testing.T) {
	d := &Drift{}
	hist := []float64{10, 12, 14, 16} // slope 2
	if err := d.Fit(hist); err != nil {
		t.Fatal(err)
	}
	got, err := d.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	if got != 18 {
		t.Fatalf("drift = %v, want 18", got)
	}
	if err := d.Fit([]float64{1}); err == nil {
		t.Fatal("expected error for single value")
	}
	if _, err := d.Predict([]float64{1}); err == nil {
		t.Fatal("expected error for single value")
	}
}

// newHoltWinters returns a seasonal smoother with standard parameters.
func newHoltWinters(period int) *HoltWinters {
	return &HoltWinters{Alpha: 0.4, Beta: 0.1, Gamma: 0.3, Period: period}
}

func TestHoltWintersLearnsSeasonality(t *testing.T) {
	// Noisy seasonal series with trend: HW must beat Holt (non-seasonal)
	// decisively.
	rng := rand.New(rand.NewSource(9))
	n := 600
	series := make([]float64, n)
	for i := range series {
		series[i] = 500 + 0.3*float64(i) + 200*math.Sin(2*math.Pi*float64(i)/24) + 5*rng.NormFloat64()
	}
	hw := newHoltWinters(24)
	holt := &HoltDES{Alpha: 0.5, Beta: 0.3}
	if err := hw.Fit(series[:480]); err != nil {
		t.Fatal(err)
	}
	if err := holt.Fit(series[:480]); err != nil {
		t.Fatal(err)
	}
	var hwErr, holtErr float64
	for cut := 480; cut < n; cut++ {
		a, err := hw.Predict(series[:cut])
		if err != nil {
			t.Fatal(err)
		}
		b, err := holt.Predict(series[:cut])
		if err != nil {
			t.Fatal(err)
		}
		hwErr += math.Abs(a - series[cut])
		holtErr += math.Abs(b - series[cut])
	}
	if hwErr > holtErr/3 {
		t.Fatalf("HoltWinters error %v should be far below Holt %v on seasonal data", hwErr, holtErr)
	}
}

func TestHoltWintersValidation(t *testing.T) {
	hw := newHoltWinters(1)
	if err := hw.Fit(make([]float64, 50)); err == nil {
		t.Fatal("expected error for period 1")
	}
	hw = newHoltWinters(24)
	hw.Alpha = 2
	if err := hw.Fit(make([]float64, 100)); err == nil {
		t.Fatal("expected error for alpha out of range")
	}
	hw = newHoltWinters(24)
	if err := hw.Fit(make([]float64, 30)); err == nil {
		t.Fatal("expected error for fewer than two seasons")
	}
	if _, err := hw.Predict(make([]float64, 30)); err == nil {
		t.Fatal("expected error before Fit")
	}
}

func TestHoltWintersRefitResetsState(t *testing.T) {
	series := make([]float64, 120)
	for i := range series {
		series[i] = 100 + 50*math.Sin(2*math.Pi*float64(i)/12)
	}
	hw := newHoltWinters(12)
	if err := hw.Fit(series); err != nil {
		t.Fatal(err)
	}
	a, err := hw.Predict(series)
	if err != nil {
		t.Fatal(err)
	}
	// Refit on the same data: identical forecast.
	if err := hw.Fit(series); err != nil {
		t.Fatal(err)
	}
	b, err := hw.Predict(series)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("refit changed forecast: %v vs %v", a, b)
	}
}

package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vals); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Std(vals); got != 2 {
		t.Fatalf("Std = %v, want 2", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty-slice statistics should be 0")
	}
}

func TestMAPEKnownValue(t *testing.T) {
	got, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE = %v, want 10", got)
	}
}

func TestMAPESkipsZeroActuals(t *testing.T) {
	got, err := MAPE([]float64{5, 110}, []float64{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE = %v, want 10 (zero actual skipped)", got)
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err == nil {
		t.Fatal("expected error when all actuals are zero")
	}
}

func TestMetricLengthMismatch(t *testing.T) {
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("MAPE should reject mismatched lengths")
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("RMSE should reject mismatched lengths")
	}
	if _, err := MAE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("MAE should reject mismatched lengths")
	}
	if _, err := SMAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("SMAPE should reject mismatched lengths")
	}
}

// Property: perfect predictions give zero error under every metric.
func TestMetricsZeroOnPerfectPrediction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 1 + rng.Float64()*100
		}
		mape, err1 := MAPE(vals, vals)
		rmse, err2 := RMSE(vals, vals)
		mae, err3 := MAE(vals, vals)
		smape, err4 := SMAPE(vals, vals)
		return err1 == nil && err2 == nil && err3 == nil && err4 == nil &&
			mape == 0 && rmse == 0 && mae == 0 && smape == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RMSE ≥ MAE (Jensen), and both non-negative.
func TestRMSEDominatesMAE(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		pred := make([]float64, n)
		act := make([]float64, n)
		for i := range pred {
			pred[i] = rng.NormFloat64() * 10
			act[i] = rng.NormFloat64() * 10
		}
		rmse, err1 := RMSE(pred, act)
		mae, err2 := MAE(pred, act)
		return err1 == nil && err2 == nil && rmse >= mae-1e-12 && mae >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestACFProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = math.Sin(2*math.Pi*float64(i)/20) + 0.1*rng.NormFloat64()
	}
	acf := ACF(vals, 40)
	if math.Abs(acf[0]-1) > 1e-12 {
		t.Fatalf("ACF[0] = %v, want 1", acf[0])
	}
	// A period-20 sine has a strong positive autocorrelation at lag 20.
	if acf[20] < 0.7 {
		t.Fatalf("ACF[20] = %v, want > 0.7 for period-20 signal", acf[20])
	}
	// And strongly negative at half-period.
	if acf[10] > -0.5 {
		t.Fatalf("ACF[10] = %v, want < -0.5", acf[10])
	}
}

func TestACFConstantSeries(t *testing.T) {
	acf := ACF([]float64{5, 5, 5, 5}, 2)
	if acf[0] != 1 || acf[1] != 0 {
		t.Fatalf("constant series ACF = %v", acf)
	}
}

func TestMinMaxScalerRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		var s MinMaxScaler
		s.Fit(vals)
		for _, v := range vals {
			tv := s.Transform(v)
			if tv < -1e-12 || tv > 1+1e-12 {
				return false
			}
			if math.Abs(s.Inverse(tv)-v) > 1e-9*(1+math.Abs(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZScoreScalerRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()*100 + 42
		}
		var s ZScoreScaler
		s.Fit(vals)
		scaled := TransformAll(&s, vals)
		if math.Abs(Mean(scaled)) > 1e-9 {
			return false
		}
		for i, v := range scaled {
			if back := s.Inverse(v); math.Abs(back-vals[i]) > 1e-9*(1+math.Abs(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalerDegenerateInput(t *testing.T) {
	var m MinMaxScaler
	m.Fit([]float64{7, 7, 7})
	if m.Transform(7) != 0 {
		t.Fatal("constant input should transform to 0")
	}
	var z ZScoreScaler
	z.Fit([]float64{7, 7, 7})
	if z.Transform(7) != 0 {
		t.Fatal("constant input should standardize to 0")
	}
	if z.Inverse(0) != 7 {
		t.Fatal("inverse of 0 should recover the constant")
	}
}

func TestScalerUseBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when using unfitted scaler")
		}
	}()
	var m MinMaxScaler
	m.Transform(1)
}

func TestNewScalerFactory(t *testing.T) {
	for _, name := range []string{"minmax", "zscore"} {
		s, err := NewScaler(name)
		if err != nil {
			t.Fatalf("NewScaler(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Name() = %q, want %q", s.Name(), name)
		}
	}
	if _, err := NewScaler("bogus"); err == nil {
		t.Fatal("expected error for unknown scaler")
	}
}

package cloudscale

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"loaddynamics/internal/predictors"
)

var _ predictors.Predictor = (*CloudScale)(nil)

// ifft computes the inverse DFT (power-of-two length) through FFT.
func ifft(x []complex128) ([]complex128, error) {
	n := len(x)
	conj := make([]complex128, n)
	for i, v := range x {
		conj[i] = cmplx.Conj(v)
	}
	f, err := FFT(conj)
	if err != nil {
		return nil, err
	}
	for i, v := range f {
		f[i] = cmplx.Conj(v) / complex(float64(n), 0)
	}
	return f, nil
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of [1,1,1,1] = [4,0,0,0].
	got, err := FFT([]complex128{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{4, 0, 0, 0}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("FFT = %v, want %v", got, want)
		}
	}
	// FFT of the alternating signal puts all power in the Nyquist bin.
	got, err = FFT([]complex128{1, -1, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(got[2]-4) > 1e-12 || cmplx.Abs(got[0]) > 1e-12 {
		t.Fatalf("alternating FFT = %v", got)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := FFT(make([]complex128, 6)); err == nil {
		t.Fatal("expected error for length 6")
	}
	if _, err := FFT(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

// Property: ifft(FFT(x)) == x.
func TestFFTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(6)) // 4..256
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		fx, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := ifft(fx)
		if err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval — Σ|x|² == (1/n)Σ|X|².
func TestFFTParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(4))
		x := make([]complex128, n)
		timePow := 0.0
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timePow += real(x[i]) * real(x[i])
		}
		fx, err := FFT(x)
		if err != nil {
			return false
		}
		freqPow := 0.0
		for _, v := range fx {
			freqPow += real(v)*real(v) + imag(v)*imag(v)
		}
		freqPow /= float64(n)
		return math.Abs(timePow-freqPow) < 1e-8*(1+timePow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDominantPeriodDetectsSine(t *testing.T) {
	signal := make([]float64, 256)
	for i := range signal {
		signal[i] = 100 + 50*math.Sin(2*math.Pi*float64(i)/32)
	}
	period, ratio, err := DominantPeriod(signal)
	if err != nil {
		t.Fatal(err)
	}
	if period != 32 {
		t.Fatalf("period = %d, want 32", period)
	}
	if ratio < PeriodicityThreshold {
		t.Fatalf("ratio = %v, want strong periodicity", ratio)
	}
}

func TestDominantPeriodWeakOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	signal := make([]float64, 256)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	_, ratio, err := DominantPeriod(signal)
	if err != nil {
		t.Fatal(err)
	}
	if ratio >= PeriodicityThreshold {
		t.Fatalf("white noise produced a 'dominant' period with ratio %v", ratio)
	}
	if _, _, err := DominantPeriod([]float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for too-short signal")
	}
}

func TestCloudScalePeriodicForecast(t *testing.T) {
	// Periodic signal with period 24: the pattern path should predict the
	// value one period back.
	n := 24 * 12
	series := make([]float64, n)
	for i := range series {
		series[i] = 100 + 50*math.Sin(2*math.Pi*float64(i)/24)
	}
	cs := New()
	if err := cs.Fit(series[:n-24]); err != nil {
		t.Fatal(err)
	}
	if !cs.usePattern {
		t.Fatal("pattern not detected on strongly periodic signal")
	}
	if cs.Period() != 24 && cs.Period() != 23 && cs.Period() != 25 {
		t.Fatalf("period = %d, want ≈24", cs.Period())
	}
	hist := series[:n-1]
	got, err := cs.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	want := series[n-1]
	if math.Abs(got-want) > 0.1*(1+math.Abs(want)) {
		t.Fatalf("periodic forecast = %v, want ≈%v", got, want)
	}
}

func TestCloudScaleMarkovPath(t *testing.T) {
	// Aperiodic two-level signal with sticky states: the Markov chain must
	// predict persistence.
	rng := rand.New(rand.NewSource(4))
	var series []float64
	level := 10.0
	for i := 0; i < 600; i++ {
		if rng.Float64() < 0.02 {
			if level == 10 {
				level = 100
			} else {
				level = 10
			}
		}
		series = append(series, level+rng.NormFloat64())
	}
	cs := New()
	if err := cs.Fit(series[:500]); err != nil {
		t.Fatal(err)
	}
	if cs.usePattern {
		t.Skip("random regime signal happened to look periodic for this seed")
	}
	// From a low state, the expected next value must stay low.
	got, err := cs.Predict(append(append([]float64{}, series[:500]...), 10, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if got > 40 {
		t.Fatalf("Markov prediction from low state = %v, want low", got)
	}
}

func TestCloudScaleValidation(t *testing.T) {
	cs := New()
	if _, err := cs.Predict([]float64{1}); err == nil {
		t.Fatal("expected error before Fit")
	}
	if err := cs.Fit([]float64{1, 2}); err == nil {
		t.Fatal("expected error for short train")
	}
	cs.States = 1
	if err := cs.Fit(make([]float64, 100)); err == nil {
		t.Fatal("expected error for 1 state")
	}
	cs = New()
	if err := cs.Fit(make([]float64, 100)); err != nil {
		t.Fatalf("constant series should fit: %v", err)
	}
	if _, err := cs.Predict(nil); err == nil {
		t.Fatal("expected error for empty history")
	}
}

package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKernelBasicProperties(t *testing.T) {
	kernels := []Kernel{
		RBF{LengthScale: 1, Variance: 2},
		Matern52{LengthScale: 1, Variance: 2},
	}
	a := []float64{0.1, 0.7}
	b := []float64{0.9, -0.3}
	for _, k := range kernels {
		// Symmetry.
		if math.Abs(k.Eval(a, b)-k.Eval(b, a)) > 1e-14 {
			t.Fatalf("%s: kernel not symmetric", k.Name())
		}
		// Maximum at zero distance equals the variance.
		if math.Abs(k.Eval(a, a)-2) > 1e-12 {
			t.Fatalf("%s: k(a,a) = %v, want 2", k.Name(), k.Eval(a, a))
		}
		// Decreasing with distance.
		if k.Eval(a, b) >= k.Eval(a, a) {
			t.Fatalf("%s: kernel should decay with distance", k.Name())
		}
		if k.Eval(a, b) <= 0 {
			t.Fatalf("%s: kernel must stay positive", k.Name())
		}
	}
}

// Property: the kernel decays monotonically as points move apart.
func TestKernelMonotoneDecay(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := Matern52{LengthScale: 0.5 + rng.Float64(), Variance: 1}
		a := []float64{0}
		prev := k.Eval(a, []float64{0})
		for d := 0.1; d < 3; d += 0.1 {
			cur := k.Eval(a, []float64{d})
			if cur > prev+1e-14 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RBF{1, 1}.Eval([]float64{1}, []float64{1, 2})
}

func TestFitValidation(t *testing.T) {
	k := RBF{1, 1}
	if _, err := Fit(nil, nil, k, 0.1); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, k, 0.1); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, k, 0.1); err == nil {
		t.Fatal("expected error on ragged inputs")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, k, -1); err == nil {
		t.Fatal("expected error on negative noise")
	}
}

// TestPosteriorInterpolates: with tiny noise, the GP posterior mean passes
// (almost) through the training points and the posterior variance collapses
// there.
func TestPosteriorInterpolates(t *testing.T) {
	x := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = math.Sin(3 * xi[0])
	}
	g, err := Fit(x, y, RBF{LengthScale: 0.3, Variance: 1}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for i, xi := range x {
		mean, va := g.Predict(xi)
		if math.Abs(mean-y[i]) > 1e-3 {
			t.Fatalf("posterior mean at training point %v: %v vs %v", xi, mean, y[i])
		}
		if va > 1e-4 {
			t.Fatalf("posterior variance at training point %v: %v, want ≈0", xi, va)
		}
	}
}

// TestPosteriorGeneralizes: mid-point prediction on a smooth function is
// close to the true value, and variance grows away from the data.
func TestPosteriorGeneralizes(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i <= 10; i++ {
		v := float64(i) / 10
		x = append(x, []float64{v})
		y = append(y, v*v)
	}
	g, err := Fit(x, y, Matern52{LengthScale: 0.5, Variance: 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := g.Predict([]float64{0.55})
	if math.Abs(mean-0.3025) > 0.02 {
		t.Fatalf("prediction at 0.55 = %v, want ≈0.3025", mean)
	}
	_, vNear := g.Predict([]float64{0.5})
	_, vFar := g.Predict([]float64{3})
	if vFar <= vNear {
		t.Fatalf("variance should grow away from data: near %v, far %v", vNear, vFar)
	}
}

func TestPredictVarianceNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.NormFloat64()
		}
		g, err := Fit(x, y, Matern52{LengthScale: 1, Variance: 1}, 1e-4)
		if err != nil {
			return false
		}
		for k := 0; k < 10; k++ {
			q := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
			mean, va := g.Predict(q)
			if va < 0 || math.IsNaN(va) || math.IsNaN(mean) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantTargetsHandled(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{5, 5, 5}
	g, err := Fit(x, y, RBF{1, 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := g.Predict([]float64{0.5})
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("constant-target prediction = %v, want 5", mean)
	}
}

func TestDuplicateInputsNeedJitter(t *testing.T) {
	// Duplicate rows make K singular without noise; the jitter retry must
	// still produce a usable posterior.
	x := [][]float64{{1}, {1}, {2}}
	y := []float64{3, 3, 4}
	g, err := Fit(x, y, RBF{1, 1}, 0)
	if err != nil {
		t.Fatalf("Fit with duplicates failed: %v", err)
	}
	mean, _ := g.Predict([]float64{1})
	if math.Abs(mean-3) > 0.5 {
		t.Fatalf("prediction at duplicate point = %v, want ≈3", mean)
	}
}

func TestLogMarginalLikelihoodPrefersGoodFit(t *testing.T) {
	// Data drawn from a smooth function: a sensible length scale must have
	// higher LML than an absurdly small one.
	var x [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		v := float64(i) / 19
		x = append(x, []float64{v})
		y = append(y, math.Sin(4*v))
	}
	good, err := Fit(x, y, RBF{LengthScale: 0.4, Variance: 1}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Fit(x, y, RBF{LengthScale: 0.001, Variance: 1}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if good.lml <= bad.lml {
		t.Fatalf("LML: good %v should beat bad %v", good.lml, bad.lml)
	}
}

func TestFitAutoSelectsReasonableScale(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 25; i++ {
		v := float64(i) / 24 * 3
		x = append(x, []float64{v})
		y = append(y, math.Cos(2*v))
	}
	g, err := FitAuto(x, y, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := g.Predict([]float64{1.5})
	if math.Abs(mean-math.Cos(3)) > 0.15 {
		t.Fatalf("FitAuto prediction %v, want ≈%v", mean, math.Cos(3))
	}
}

func TestFitCopiesInputs(t *testing.T) {
	x := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	g, err := Fit(x, y, RBF{1, 1}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := g.Predict([]float64{1.5})
	x[0][0] = 99 // mutating caller data must not affect the fitted model
	after, _ := g.Predict([]float64{1.5})
	if before != after {
		t.Fatal("GP must copy training inputs")
	}
}

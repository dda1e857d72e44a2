package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive definite matrix A = BᵀB + εI.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	a := MatMul(b.T(), b)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += 0.5
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		return matsAlmostEqual(MatMul(l, l.T()), a, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	a := fromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestSolveSPDResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := MatVec(a, want)
		got, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		for i := range got {
			if !almostEqual(got[i], want[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLowerUpperRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 5)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -2, 3, 0.5, 4}
	// L·y = b then Lᵀ·x = y solves A·x = b.
	x := SolveUpperT(l, SolveLower(l, b))
	res := MatVec(a, x)
	for i := range res {
		if !almostEqual(res[i], b[i], 1e-8) {
			t.Fatalf("residual at %d: %v vs %v", i, res[i], b[i])
		}
	}
}

func TestSolveSPDRegularizedRecoversFromSingular(t *testing.T) {
	// Singular (rank-1) matrix: plain Cholesky fails, regularized succeeds.
	a := fromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := SolveSPD(a, []float64{1, 1}); err == nil {
		t.Fatal("expected plain SolveSPD to fail on singular matrix")
	}
	x, err := SolveSPDRegularized(a, []float64{1, 1}, 0)
	if err != nil {
		t.Fatalf("regularized solve failed: %v", err)
	}
	if len(x) != 2 {
		t.Fatalf("bad solution length %d", len(x))
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 2 + 3x fits exactly.
	x := fromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	y := []float64{2, 5, 8, 11}
	beta, err := LeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(beta[0], 2, 1e-8) || !almostEqual(beta[1], 3, 1e-8) {
		t.Fatalf("beta = %v, want [2 3]", beta)
	}
}

func TestPolyFitRecoversCoefficients(t *testing.T) {
	f := func(c0, c1, c2 float64) bool {
		c0 = math.Mod(c0, 10)
		c1 = math.Mod(c1, 10)
		c2 = math.Mod(c2, 10)
		xs := make([]float64, 12)
		ys := make([]float64, 12)
		for i := range xs {
			x := float64(i) / 3
			xs[i] = x
			ys[i] = c0 + c1*x + c2*x*x
		}
		got, err := PolyFit(xs, ys, 2)
		if err != nil {
			return false
		}
		return almostEqual(got[0], c0, 1e-5) && almostEqual(got[1], c1, 1e-5) && almostEqual(got[2], c2, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPolyFitInsufficientPoints(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, 3); err == nil {
		t.Fatal("expected error fitting cubic to 2 points")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

func TestPolyEvalHorner(t *testing.T) {
	// 1 + 2x + 3x² at x=2 → 1 + 4 + 12 = 17.
	if got := PolyEval([]float64{1, 2, 3}, 2); got != 17 {
		t.Fatalf("PolyEval = %v, want 17", got)
	}
	if got := PolyEval(nil, 5); got != 0 {
		t.Fatalf("PolyEval(nil) = %v, want 0", got)
	}
}

// Property: appending the border row/column of a larger SPD matrix to the
// factor of its leading principal submatrix reproduces the full Cholesky
// factor.
func TestCholeskyAppendRowMatchesFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		full := randomSPD(rng, n)
		// Leading (n-1)×(n-1) principal submatrix.
		sub := New(n-1, n-1)
		for i := 0; i < n-1; i++ {
			copy(sub.Row(i), full.Row(i)[:n-1])
		}
		lSub, err := Cholesky(sub)
		if err != nil {
			return false
		}
		border := append([]float64(nil), full.Row(n - 1)[:n-1]...)
		got, err := CholeskyAppendRow(lSub, border, full.At(n-1, n-1))
		if err != nil {
			return false
		}
		want, err := Cholesky(full)
		if err != nil {
			return false
		}
		return matsAlmostEqual(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyAppendRowRejectsNonPD(t *testing.T) {
	l, err := Cholesky(fromRows([][]float64{{4}}))
	if err != nil {
		t.Fatal(err)
	}
	// Bordering [[4, 4], [4, 1]] is indefinite (det = -12).
	if _, err := CholeskyAppendRow(l, []float64{4}, 1); err == nil {
		t.Fatal("expected error for indefinite bordered matrix")
	}
	if _, err := CholeskyAppendRow(l, []float64{1, 2}, 1); err == nil {
		t.Fatal("expected error for wrong border length")
	}
	if _, err := CholeskyAppendRow(New(2, 3), []float64{1, 2}, 1); err == nil {
		t.Fatal("expected error for non-square factor")
	}
}

// Property: SolveLowerBatch solves every row exactly as SolveLower does.
func TestSolveLowerBatchMatchesPerVector(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(6)
		l, err := Cholesky(randomSPD(rng, n))
		if err != nil {
			return false
		}
		b := randomMatrix(rng, m, n)
		got := SolveLowerBatch(l, b)
		for r := 0; r < m; r++ {
			want := SolveLower(l, b.Row(r))
			for i, v := range want {
				if got.At(r, i) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L of a symmetric positive
// definite matrix A such that A = L·Lᵀ. Only the lower triangle of A is
// read. The returned matrix has its upper triangle zeroed.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= float64(l.At(i, k) * l.At(j, k))
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholeskyAppendRow extends the lower Cholesky factor L (n×n) of a matrix A
// to the factor of the bordered matrix
//
//	[ A   b ]
//	[ bᵀ  c ]
//
// in O(n²): the new off-diagonal row l solves L·l = b by forward
// substitution and the new diagonal entry is √(c − l·l). It returns
// ErrNotPositiveDefinite when the bordered matrix is not (numerically)
// positive definite. This is the rank-1 update that lets a Gaussian process
// absorb one new observation without re-factorizing the whole kernel matrix
// in O(n³).
func CholeskyAppendRow(l *Matrix, b []float64, c float64) (*Matrix, error) {
	if l.Rows != l.Cols {
		return nil, fmt.Errorf("mat: CholeskyAppendRow of non-square %dx%d factor", l.Rows, l.Cols)
	}
	n := l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: CholeskyAppendRow border length %d, want %d", len(b), n)
	}
	out := New(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(out.Data[i*(n+1):i*(n+1)+i+1], l.Data[i*n:i*n+i+1])
	}
	row := SolveLower(l, b)
	copy(out.Data[n*(n+1):n*(n+1)+n], row)
	d := c - Dot(row, row)
	if d <= 0 || math.IsNaN(d) {
		return nil, ErrNotPositiveDefinite
	}
	out.Set(n, n, math.Sqrt(d))
	return out, nil
}

// SolveLower solves L·y = b for y where L is lower triangular.
func SolveLower(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveLower dims %d vs %d", n, len(b)))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		row := l.Data[i*n : i*n+i]
		for k, v := range row {
			sum -= float64(v * y[k])
		}
		y[i] = sum / l.At(i, i)
	}
	return y
}

// SolveLowerBatch solves L·yᵢ = bᵢ for every row bᵢ of b in one pass,
// returning a matrix whose row i is the solution for b's row i. One call
// replaces len(rows) independent SolveLower invocations (and their per-call
// allocations) when scoring a whole candidate batch against a GP posterior.
// Each row is solved with exactly the arithmetic of SolveLower, so results
// are bit-identical to the per-vector path.
func SolveLowerBatch(l, b *Matrix) *Matrix {
	n := l.Rows
	if b.Cols != n {
		panic(fmt.Sprintf("mat: SolveLowerBatch dims %d vs %d", n, b.Cols))
	}
	out := New(b.Rows, n)
	for r := 0; r < b.Rows; r++ {
		brow := b.Data[r*n : (r+1)*n]
		y := out.Data[r*n : (r+1)*n]
		for i := 0; i < n; i++ {
			sum := brow[i]
			row := l.Data[i*n : i*n+i]
			for k, v := range row {
				sum -= float64(v * y[k])
			}
			y[i] = sum / l.At(i, i)
		}
	}
	return out
}

// SolveUpperT solves Lᵀ·x = y for x given lower-triangular L (i.e. a
// back-substitution against the transpose of L).
func SolveUpperT(l *Matrix, y []float64) []float64 {
	n := l.Rows
	if len(y) != n {
		panic(fmt.Sprintf("mat: SolveUpperT dims %d vs %d", n, len(y)))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= float64(l.At(k, i) * x[k])
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}

// SolveSPD solves A·x = b for symmetric positive definite A via Cholesky.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return SolveUpperT(l, SolveLower(l, b)), nil
}

// SolveSPDRegularized solves (A + jitter·I)·x = b, increasing jitter by 10×
// (up to maxTries times) whenever the Cholesky factorization fails. This is
// the standard trick for kernel matrices that are SPD in exact arithmetic
// but borderline in floating point.
func SolveSPDRegularized(a *Matrix, b []float64, jitter float64) ([]float64, error) {
	const maxTries = 8
	for try := 0; try < maxTries; try++ {
		aj := a.Clone()
		for i := 0; i < aj.Rows; i++ {
			aj.Data[i*aj.Cols+i] += jitter
		}
		x, err := SolveSPD(aj, b)
		if err == nil {
			return x, nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
	}
	return nil, ErrNotPositiveDefinite
}

// LeastSquares solves min‖X·β − y‖² via the normal equations
// (XᵀX + ridge·I)·β = Xᵀy. A small ridge keeps near-collinear designs
// solvable; pass 0 for plain least squares.
func LeastSquares(x *Matrix, y []float64, ridge float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("mat: LeastSquares rows %d vs len(y) %d", x.Rows, len(y))
	}
	xt := x.T()
	xtx := MatMul(xt, x)
	for i := 0; i < xtx.Rows; i++ {
		xtx.Data[i*xtx.Cols+i] += ridge
	}
	xty := MatVec(xt, y)
	beta, err := SolveSPDRegularized(xtx, xty, 0)
	if err != nil {
		return nil, fmt.Errorf("mat: LeastSquares: %w", err)
	}
	return beta, nil
}

// PolyFit fits a degree-d polynomial to points (xs, ys) by least squares and
// returns the d+1 coefficients c such that y ≈ c[0] + c[1]x + … + c[d]x^d.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("mat: PolyFit length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < degree+1 {
		return nil, fmt.Errorf("mat: PolyFit needs at least %d points, got %d", degree+1, len(xs))
	}
	design := New(len(xs), degree+1)
	for i, x := range xs {
		p := 1.0
		for j := 0; j <= degree; j++ {
			design.Set(i, j, p)
			p *= x
		}
	}
	return LeastSquares(design, ys, 1e-12)
}

// PolyEval evaluates the polynomial with coefficients c (lowest degree
// first) at x using Horner's rule.
func PolyEval(c []float64, x float64) float64 {
	v := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		v = v*x + c[i]
	}
	return v
}

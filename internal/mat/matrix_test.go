package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func matsAlmostEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !almostEqual(a.Data[i], b.Data[i], tol) {
			return false
		}
	}
	return true
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(0, 0) != 1 || m.At(2, 1) != 6 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected elements: %+v", m)
	}
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

// fromRows builds a matrix from a non-empty slice of equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestIdentityMultiplication(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 5)
	if !matsAlmostEqual(MatMul(a, identity(5)), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !matsAlmostEqual(MatMul(identity(5), a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := fromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := MatMul(a, b)
	want := fromRows([][]float64{{58, 64}, {139, 154}})
	if !matsAlmostEqual(got, want, 1e-12) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// TestMatMulParallelMatchesSerial forces the parallel path and compares with
// the serial kernel.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 80, 70)
	b := randomMatrix(rng, 70, 90) // 80*70*90 = 504000 > parallelThreshold
	got := MatMul(a, b)
	want := New(a.Rows, b.Cols)
	matMulRange(a, b, want, 0, a.Rows)
	if !matsAlmostEqual(got, want, 1e-12) {
		t.Fatal("parallel MatMul disagrees with serial kernel")
	}
}

// Property: MatMulBT(a, b) == a×bᵀ and MatMulAT(a, b) == aᵀ×b.
func TestTransposeFreeKernels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, p := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, p, n) // for BT: a (m×n) × bᵀ (n×p)
		if !matsAlmostEqual(MatMulBT(a, b), MatMul(a, b.T()), 1e-12) {
			return false
		}
		c := randomMatrix(rng, m, p) // for AT: aᵀ (n×m) × c (m×p)
		return matsAlmostEqual(MatMulAT(a, c), MatMul(a.T(), c), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeFreeKernelsDimPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { MatMulBT(New(2, 3), New(2, 4)) },
		func() { MatMulAT(New(2, 3), New(3, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on dim mismatch")
				}
			}()
			fn()
		}()
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		m := randomMatrix(rng, r, c)
		return matsAlmostEqual(m.T().T(), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, p := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, n, p)
		return matsAlmostEqual(MatMul(a, b).T(), MatMul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix addition commutes and Sub inverts Add.
func TestAddSubProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, r, c)
		b := randomMatrix(rng, r, c)
		if !matsAlmostEqual(a.Add(b), b.Add(a), 1e-12) {
			return false
		}
		return matsAlmostEqual(a.Add(b).Sub(b), a, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Hadamard with a ones matrix is the identity operation.
func TestHadamardOnes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, r, c)
		ones := New(r, c).Apply(func(float64) float64 { return 1 })
		return matsAlmostEqual(a.Hadamard(ones), a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 4, 4)
	if !matsAlmostEqual(a.Scale(2), a.Add(a), 1e-12) {
		t.Fatal("2A != A + A")
	}
}

func TestMatVecMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 6, 5)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := MatVec(a, x)
	want := MatMul(a, FromSlice(5, 1, x))
	for i, v := range got {
		if !almostEqual(v, want.Data[i], 1e-12) {
			t.Fatalf("row %d: %v vs %v", i, v, want.Data[i])
		}
	}
}

func TestDotAndNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot([]float64{3, 4}, []float64{3, 4}); got != 25 {
		t.Fatalf("squared norm via Dot = %v, want 25", got)
	}
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1, 1}
	AXPY(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestRowIsView(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	a.Row(1)[0] = 42
	if a.At(1, 0) != 42 {
		t.Fatal("Row should be a mutable view")
	}
}

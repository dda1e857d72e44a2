package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Scalar reference kernels: the unblocked loops the register-blocked kernels
// replaced, kept here as the definition of the exact floating-point operation
// sequence every output element must see.

func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, aik := range a.Row(i) {
			if aik == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += float64(aik * bv)
			}
		}
	}
	return out
}

func refMatMulAT(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		brow := b.Row(k)
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
	return out
}

func refDot(a, b []float64) float64 {
	s := 0.0
	for k, av := range a {
		s += float64(av * b[k])
	}
	return s
}

func refMatMulBT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			out.Set(i, j, refDot(a.Row(i), b.Row(j)))
		}
	}
	return out
}

func refMatMulBT2Bias(a1, b1, a2, b2 *Matrix, bias []float64) *Matrix {
	out := New(a1.Rows, b1.Rows)
	for i := 0; i < a1.Rows; i++ {
		for j := 0; j < b1.Rows; j++ {
			out.Set(i, j, (refDot(a1.Row(i), b1.Row(j))+refDot(a2.Row(i), b2.Row(j)))+bias[j])
		}
	}
	return out
}

// sparseMatrix is a random matrix with about a quarter of its entries exact
// zeros, so the kernels' zero-skip paths run, some of them −0 (skipped like
// +0), and a few subnormal entries.
func sparseMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := randomMatrix(rng, r, c)
	for i := range m.Data {
		switch rng.Intn(32) {
		case 0, 1, 2, 3, 4, 5, 6:
			m.Data[i] = 0
		case 7:
			m.Data[i] = math.Copysign(0, -1)
		case 8:
			m.Data[i] *= 0x1p-1060
		}
	}
	return m
}

// withNaN returns a copy of m with one entry set to NaN, which the zero skip
// must not skip: a kernel that tested av == 0 the wrong way round for NaN
// would drop it and leave a number where the reference has NaN.
func withNaN(rng *rand.Rand, m *Matrix) *Matrix {
	out := m.Clone()
	out.Data[rng.Intn(len(out.Data))] = math.NaN()
	return out
}

// withInfs returns a copy of m with a few entries set to ±Inf. A kernel that
// dropped the zero skip would turn 0·Inf into NaN where the reference does
// not, so the skip becomes observable in the output bits.
func withInfs(rng *rand.Rand, m *Matrix) *Matrix {
	out := m.Clone()
	for n := 1 + len(out.Data)/8; n > 0; n-- {
		out.Data[rng.Intn(len(out.Data))] = math.Inf(1 - 2*rng.Intn(2))
	}
	return out
}

func nanMatrix(r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// firstBitDiff returns the index of the first element whose bits differ, or
// -1 when got and want are bit-identical. Two NaNs count as equal whatever
// their payloads: when two different NaNs meet in an add, x86 returns the
// first source's, and Go's compiler picks the order of a commutative add's
// operands freely (the Go kernels and the scalar reference already differ
// there), so the payload is not part of the bit-identity rule.
func firstBitDiff(got, want *Matrix) int {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return 0
	}
	for i, v := range got.Data {
		w := want.Data[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// forEachKernel runs f as one subtest on the Go kernels and one on the AVX2
// kernels, skipping the AVX2 leg on a CPU without AVX2. It flips the
// package-wide selector, so its callers must not run in parallel.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(path.name, func(t *testing.T) {
			restore, ok := SetAVX2ForTest(path.avx2)
			if !ok {
				t.Skip("CPU or OS lacks AVX2: only the Go kernels run here")
			}
			t.Cleanup(restore)
			f(t)
		})
	}
}

// TestBlockedKernelsMatchScalarReference pins every kernel, on both paths,
// to its scalar reference bit for bit, over output widths 1–37 (every
// remainder of the four-wide blocks and lanes), output row counts 1–65
// (every remainder of the row blocking) and inner dimensions 1–19 (every
// remainder of the four-wide k steps), with exact zeros, −0 and
// subnormals in the left operand, a NaN in it on a third of the shapes, ±Inf
// in the right operand on half of them, and NaN pre-filled destinations that
// the kernels must fully overwrite.
func TestBlockedKernelsMatchScalarReference(t *testing.T) {
	forEachKernel(t, testKernelsMatchScalarReference)
}

func testKernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	check := func(name string, rows, width, n int, got, want *Matrix) {
		t.Helper()
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%s rows=%d width=%d inner=%d: element %d = %v (%#x), reference %v (%#x)",
				name, rows, width, n, i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
	for rows := 1; rows <= 65; rows++ {
		for width := 1; width <= 37; width++ {
			n := 1 + (rows+width)%19 // inner dimension
			infs := (rows+width)%2 == 0
			nans := (rows+width)%3 == 0
			right := func(r, c int) *Matrix {
				m := randomMatrix(rng, r, c)
				if infs {
					m = withInfs(rng, m)
				}
				return m
			}
			left := func(r, c int) *Matrix {
				m := sparseMatrix(rng, r, c)
				if nans {
					m = withNaN(rng, m)
				}
				return m
			}

			a, b := left(rows, n), right(n, width)
			got := nanMatrix(rows, width)
			MatMulInto(a, b, got)
			check("MatMulInto", rows, width, n, got, refMatMul(a, b))

			at, bt := left(n, rows), right(n, width)
			got = nanMatrix(rows, width)
			MatMulATInto(at, bt, got)
			check("MatMulATInto", rows, width, n, got, refMatMulAT(at, bt))

			w := right(width, n)
			got = nanMatrix(rows, width)
			MatMulBTInto(a, w, got)
			check("MatMulBTInto", rows, width, n, got, refMatMulBT(a, w))

			n2 := 1 + (rows*width)%5
			a2, w2 := left(rows, n2), right(width, n2)
			bias := randomMatrix(rng, 1, width).Data
			got = nanMatrix(rows, width)
			MatMulBT2BiasInto(a, w, a2, w2, bias, got)
			check("MatMulBT2BiasInto", rows, width, n, got, refMatMulBT2Bias(a, w, a2, w2, bias))
		}
	}
}

// Property: every *Into product matches its allocating counterpart exactly
// (bit-identical, not just within tolerance) on random shapes.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		n := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := randomMatrix(rng, r, n)
		b := randomMatrix(rng, n, c)

		mm := nanMatrix(r, c)
		MatMulInto(a, b, mm)
		if firstBitDiff(mm, MatMul(a, b)) >= 0 {
			return false
		}

		bt := randomMatrix(rng, c, n)
		mbt := nanMatrix(r, c)
		MatMulBTInto(a, bt, mbt)
		if firstBitDiff(mbt, MatMulBT(a, bt)) >= 0 {
			return false
		}

		at := randomMatrix(rng, r, c)
		mat := nanMatrix(n, c)
		MatMulATInto(a, at, mat)
		return firstBitDiff(mat, MatMulAT(a, at)) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// MatMulInto must fan out to the parallel path on large operands and still
// match the scalar reference bit for bit.
func TestMatMulIntoParallelPath(t *testing.T) {
	forEachKernel(t, testMatMulIntoParallelPath)
}

func testMatMulIntoParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := sparseMatrix(rng, 97, 96)
	b := randomMatrix(rng, 96, 95)
	if 97*96*95 < parallelThreshold {
		t.Fatal("operands too small to exercise the parallel path")
	}
	got := nanMatrix(97, 95)
	MatMulInto(a, b, got)
	if i := firstBitDiff(got, refMatMul(a, b)); i >= 0 {
		t.Fatalf("parallel MatMulInto diverged from the scalar reference at element %d", i)
	}
}

func TestIntoShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(3, 2)
	bias := make([]float64, 2)
	for name, fn := range map[string]func(){
		"MatMulInto-dst":          func() { MatMulInto(a, b, New(3, 3)) },
		"MatMulInto-inner":        func() { MatMulInto(a, New(2, 2), New(2, 2)) },
		"MatMulBTInto":            func() { MatMulBTInto(a, New(2, 2), New(2, 2)) },
		"MatMulATInto":            func() { MatMulATInto(a, New(3, 2), New(3, 2)) },
		"MatMulBT2BiasInto-inner": func() { MatMulBT2BiasInto(a, New(2, 2), a, New(2, 3), bias, New(2, 2)) },
		"MatMulBT2BiasInto-outer": func() { MatMulBT2BiasInto(a, New(2, 3), a, New(3, 3), bias, New(2, 2)) },
		"MatMulBT2BiasInto-bias":  func() { MatMulBT2BiasInto(a, New(2, 3), a, New(2, 3), nil, New(2, 2)) },
		"MatMulBT2BiasInto-dst":   func() { MatMulBT2BiasInto(a, New(2, 3), a, New(2, 3), bias, New(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

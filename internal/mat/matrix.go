// Package mat provides the dense float64 linear-algebra kernels used by the
// rest of the repository: matrix/vector arithmetic, a parallel matrix
// multiply for large operands, Cholesky factorization with triangular
// solves, and polynomial least squares. It is intentionally small — just the
// operations the LSTM, Gaussian process and regression models need — and has
// no dependencies outside the standard library.
package mat

import (
	"fmt"
	"runtime"
	"sync"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (row-major, length r*c) in a matrix without copying.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice: len(data)=%d, want %d", len(data), r*c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Add returns m + other elementwise.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.mustSameShape(other, "Add")
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v + other.Data[i]
	}
	return out
}

// Sub returns m - other elementwise.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	m.mustSameShape(other, "Sub")
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v - other.Data[i]
	}
	return out
}

// Hadamard returns the elementwise product m ⊙ other.
func (m *Matrix) Hadamard(other *Matrix) *Matrix {
	m.mustSameShape(other, "Hadamard")
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v * other.Data[i]
	}
	return out
}

// Scale returns s*m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = s * v
	}
	return out
}

// AddInPlace adds other into m.
func (m *Matrix) AddInPlace(other *Matrix) {
	m.mustSameShape(other, "AddInPlace")
	for i := range m.Data {
		m.Data[i] += other.Data[i]
	}
}

// Apply returns a new matrix with f applied to every element.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

func (m *Matrix) mustSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch: %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// parallelThreshold is the flop count above which MatMul fans out across
// goroutines. Below it, goroutine overhead dominates.
const parallelThreshold = 1 << 17

// MatMul returns a×b. For large operands the row blocks are computed in
// parallel across GOMAXPROCS workers.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul inner dims: %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	matMulDispatch(a, b, out)
	return out
}

// matMulDispatch writes a×b into out, fanning out across GOMAXPROCS workers
// when the product is large enough to amortize goroutine overhead.
func matMulDispatch(a, b, out *Matrix) {
	flops := a.Rows * a.Cols * b.Cols
	if flops < parallelThreshold || a.Rows == 1 {
		matMulRange(a, b, out, 0, a.Rows)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(a, b, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulRange writes rows [lo, hi) of out = a×b with the blocked kernel
// shared with MatMulATInto (see into.go).
func matMulRange(a, b, out *Matrix, lo, hi int) {
	mulRows(a.Data, a.Cols, 1, b, out, lo, hi)
}

// MatMulBT returns a×bᵀ without materializing the transpose: out(i,j) is
// the dot product of a's row i and b's row j. Both operands are read
// row-contiguously, which makes this the preferred kernel when the
// right-hand operand is stored transposed (e.g. weight matrices applied to
// activation rows).
func MatMulBT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulBTInto(a, b, out)
	return out
}

// MatMulAT returns aᵀ×b without materializing the transpose:
// out(i,j) = Σ_k a(k,i)·b(k,j). Used for gradient accumulation
// (activationsᵀ × deltas).
func MatMulAT(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulATInto(a, b, out)
	return out
}

// MatVec returns a×x for a vector x (len == a.Cols).
func MatVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("mat: MatVec dims: %dx%d × %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		s := 0.0
		for j, v := range row {
			s += float64(v * x[j])
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// AXPY computes y ← y + alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

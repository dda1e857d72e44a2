package mat

import "fmt"

// This file holds the allocation-free matrix products. Each *Into function
// writes its result into a caller-provided destination so hot loops (LSTM
// training and inference) can reuse pre-sized buffers instead of allocating
// fresh matrices every step. The allocating MatMul, MatMulBT and MatMulAT
// run the same kernels.
//
// Every product that meets an add is written float64(a*b): the explicit
// conversion rounds it, so compilers that fuse a*b + c into one FMA (arm64,
// say) cannot, and the kernels round the same way on every architecture.

// Zero clears every element of m.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// mustShape panics unless m is r×c.
func (m *Matrix) mustShape(r, c int, op string) {
	if m.Rows != r || m.Cols != c {
		panic(fmt.Sprintf("mat: %s destination is %dx%d, want %dx%d", op, m.Rows, m.Cols, r, c))
	}
}

// The matrix products are register-blocked: each pass over the inner
// dimension computes a block of outputs — up to two rows by four columns, or
// four rows of one column where the output is narrow — with one accumulator
// per output element, so independent sums overlap in the FPU instead of
// forming one serial add chain, and each loaded operand feeds several
// outputs. The blocking never changes the arithmetic: every output element
// starts from zero and adds its products in k-ascending order exactly as the
// scalar loop does, skipping the same zero left-operand entries, so results
// are bit-identical to the unblocked kernels. Do not reassociate, split sums
// or use math.FMA here; trained weights, forecasts and BO histories depend on
// these exact bits. On hosts with AVX2 the products run the assembly kernels
// of kernel_amd64.s instead (selected in kernel.go), which keep the same rule
// lane by lane; these Go kernels are the reference they are tested against.

// MatMulInto computes a×b into dst, overwriting it. dst must not alias a or
// b. Like MatMul, large products are computed in parallel row blocks.
func MatMulInto(a, b, dst *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulInto inner dims: %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.mustShape(a.Rows, b.Cols, "MatMulInto")
	matMulDispatch(a, b, dst)
}

// MatMulBTInto computes a×bᵀ into dst without materializing the transpose:
// dst(i,j) = aᵢ·bⱼ summed k-ascending from zero. dst must not alias a or b.
func MatMulBTInto(a, b, dst *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulBTInto inner dims: %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.mustShape(a.Rows, b.Rows, "MatMulBTInto")
	if useAVX2 {
		mulBTAVX2(a, b, nil, dst)
		return
	}
	n, m := a.Cols, b.Rows
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		orow := dst.Data[i*m : (i+1)*m]
		j := 0
		for ; j+4 <= m; j += 4 {
			o := orow[j : j+4]
			o[0], o[1], o[2], o[3] = dot4(arow, b.Data[j*n:(j+4)*n])
		}
		for ; j < m; j++ {
			orow[j] = dot(arow, b.Data[j*n:(j+1)*n])
		}
	}
}

// MatMulBT2BiasInto computes a1×b1ᵀ + a2×b2ᵀ + rowwise bias into dst in a
// single pass: dst(i,j) = (a1ᵢ·b1ⱼ + a2ᵢ·b2ⱼ) + bias[j], with each dot product
// summed k-ascending from zero. It is the LSTM gate pre-activation
// x·Wxᵀ + h·Whᵀ + b. dst must not alias any operand.
func MatMulBT2BiasInto(a1, b1, a2, b2 *Matrix, bias []float64, dst *Matrix) {
	if a1.Cols != b1.Cols {
		panic(fmt.Sprintf("mat: MatMulBT2BiasInto inner dims: %dx%d × (%dx%d)ᵀ", a1.Rows, a1.Cols, b1.Rows, b1.Cols))
	}
	if a2.Cols != b2.Cols {
		panic(fmt.Sprintf("mat: MatMulBT2BiasInto inner dims: %dx%d × (%dx%d)ᵀ", a2.Rows, a2.Cols, b2.Rows, b2.Cols))
	}
	if a1.Rows != a2.Rows || b1.Rows != b2.Rows {
		panic(fmt.Sprintf("mat: MatMulBT2BiasInto outer dims: %dx%d vs %dx%d", a1.Rows, b1.Rows, a2.Rows, b2.Rows))
	}
	if len(bias) != b1.Rows {
		panic(fmt.Sprintf("mat: MatMulBT2BiasInto bias length %d, want %d", len(bias), b1.Rows))
	}
	dst.mustShape(a1.Rows, b1.Rows, "MatMulBT2BiasInto")
	if useAVX2 { // dst holds a1×b1ᵀ between the two passes
		mulBTAVX2(a1, b1, nil, dst)
		mulBTAVX2(a2, b2, bias, dst)
		return
	}
	n1, n2, m := a1.Cols, a2.Cols, b1.Rows
	for i := 0; i < a1.Rows; i++ {
		a1row := a1.Data[i*n1 : (i+1)*n1]
		a2row := a2.Data[i*n2 : (i+1)*n2]
		orow := dst.Data[i*m : (i+1)*m]
		j := 0
		for ; j+4 <= m; j += 4 {
			p0, p1, p2, p3 := dot4(a1row, b1.Data[j*n1:(j+4)*n1])
			q0, q1, q2, q3 := dot4(a2row, b2.Data[j*n2:(j+4)*n2])
			o := orow[j : j+4]
			bs := bias[j : j+4]
			o[0] = (p0 + q0) + bs[0]
			o[1] = (p1 + q1) + bs[1]
			o[2] = (p2 + q2) + bs[2]
			o[3] = (p3 + q3) + bs[3]
		}
		for ; j < m; j++ {
			orow[j] = (dot(a1row, b1.Data[j*n1:(j+1)*n1]) + dot(a2row, b2.Data[j*n2:(j+1)*n2])) + bias[j]
		}
	}
}

// dot4 returns the dot products of a with the four consecutive len(a)-long
// rows packed in b, each summed k-ascending from zero.
func dot4(a, b []float64) (s0, s1, s2, s3 float64) {
	n := len(a)
	b0, b1, b2, b3 := b[:n], b[n:][:n], b[2*n:][:n], b[3*n:][:n]
	for k, av := range a {
		s0 += float64(av * b0[k])
		s1 += float64(av * b1[k])
		s2 += float64(av * b2[k])
		s3 += float64(av * b3[k])
	}
	return
}

// dot returns a·b summed k-ascending from zero.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for k, av := range a {
		s += float64(av * b[k])
	}
	return s
}

// MatMulATInto computes aᵀ×b into dst: dst(i,j) = Σₖ a(k,i)·b(k,j), summed
// k-ascending from zero and skipping the terms where a(k,i) == 0. dst must not
// alias a or b.
func MatMulATInto(a, b, dst *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MatMulATInto inner dims: (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.mustShape(a.Cols, b.Cols, "MatMulATInto")
	mulRows(a.Data, 1, a.Cols, b, dst, 0, a.Cols)
}

// mulRows writes rows [lo, hi) of out = A×b, reading A through strides,
// A(i,k) = ad[i*rs + k*ks], so one kernel serves a×b (rs = a.Cols, ks = 1)
// and aᵀ×b (rs = 1, ks = a.Cols): out(i,j) = Σₖ A(i,k)·b(k,j), summed
// k-ascending from zero and skipping the terms where A(i,k) == 0.
func mulRows(ad []float64, rs, ks int, b, out *Matrix, lo, hi int) {
	if useAVX2 {
		mulRowsAVX2(ad, rs, ks, b, out, lo, hi)
		return
	}
	N := b.Cols
	bd, od := b.Data[:b.Rows*N], out.Data
	i := lo
	for ; i+2 <= hi; i += 2 {
		for j := 0; j+4 <= N; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for ka, kb := i*rs, j; kb < len(bd); ka, kb = ka+ks, kb+N {
				br := bd[kb : kb+4]
				if av := ad[ka]; av != 0 {
					s00 += float64(av * br[0])
					s01 += float64(av * br[1])
					s02 += float64(av * br[2])
					s03 += float64(av * br[3])
				}
				if av := ad[ka+rs]; av != 0 {
					s10 += float64(av * br[0])
					s11 += float64(av * br[1])
					s12 += float64(av * br[2])
					s13 += float64(av * br[3])
				}
			}
			o := od[i*N+j : i*N+j+4]
			o[0], o[1], o[2], o[3] = s00, s01, s02, s03
			o = od[(i+1)*N+j : (i+1)*N+j+4]
			o[0], o[1], o[2], o[3] = s10, s11, s12, s13
		}
	}
	if i < hi { // odd row left over
		for j := 0; j+4 <= N; j += 4 {
			var s0, s1, s2, s3 float64
			for ka, kb := i*rs, j; kb < len(bd); ka, kb = ka+ks, kb+N {
				av := ad[ka]
				if av == 0 {
					continue
				}
				br := bd[kb : kb+4]
				s0 += float64(av * br[0])
				s1 += float64(av * br[1])
				s2 += float64(av * br[2])
				s3 += float64(av * br[3])
			}
			o := od[i*N+j : i*N+j+4]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
	// Columns left over after the four-wide blocks: block four rows of one
	// column instead (the LSTM's layer-0 input gradient is one column wide).
	for j := N - N%4; j < N; j++ {
		i := lo
		for ; i+4 <= hi; i += 4 {
			var s0, s1, s2, s3 float64
			for ka, kb := i*rs, j; kb < len(bd); ka, kb = ka+ks, kb+N {
				bv := bd[kb]
				if av := ad[ka]; av != 0 {
					s0 += float64(av * bv)
				}
				if av := ad[ka+rs]; av != 0 {
					s1 += float64(av * bv)
				}
				if av := ad[ka+2*rs]; av != 0 {
					s2 += float64(av * bv)
				}
				if av := ad[ka+3*rs]; av != 0 {
					s3 += float64(av * bv)
				}
			}
			od[i*N+j], od[(i+1)*N+j], od[(i+2)*N+j], od[(i+3)*N+j] = s0, s1, s2, s3
		}
		for ; i < hi; i++ {
			s := 0.0
			for ka, kb := i*rs, j; kb < len(bd); ka, kb = ka+ks, kb+N {
				if av := ad[ka]; av != 0 {
					s += float64(av * bd[kb])
				}
			}
			od[i*N+j] = s
		}
	}
}

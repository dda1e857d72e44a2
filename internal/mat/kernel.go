package mat

// useAVX2 selects the AVX2 assembly kernels (kernel_amd64.s) for the matrix
// products. It is set once, at package init, from what the CPU and the OS
// support; every other host runs the Go kernels in into.go, which stay the
// reference the assembly is tested against. Only SetAVX2ForTest changes it.
var useAVX2 = haveAVX2

// SetAVX2ForTest selects the AVX2 kernels (on) or the Go reference kernels
// (!on) and returns a function that restores the selection in force before
// the call. It selects nothing and reports false when on is set and the host
// cannot run AVX2. It exists so tests can run one check on both kernel paths:
// it must not be called while any matrix product runs, and nothing but tests
// may call it.
func SetAVX2ForTest(on bool) (restore func(), ok bool) {
	if on && !haveAVX2 {
		return func() {}, false
	}
	prev := useAVX2
	useAVX2 = on
	return func() { useAVX2 = prev }, true
}

// mulRowsAVX2 is mulRows on the AVX2 kernel. The assembly checks nothing,
// so every index it will touch is bounds-checked here first.
func mulRowsAVX2(ad []float64, rs, ks int, b, out *Matrix, lo, hi int) {
	kk, n := b.Rows, b.Cols
	if hi <= lo || n == 0 {
		return
	}
	od := out.Data[lo*n : hi*n]
	if kk == 0 {
		clear(od) // an empty sum is +0
		return
	}
	bd := b.Data[:kk*n]
	_ = ad[(hi-1)*rs+(kk-1)*ks] // the last A(i,k) read; the first is ad[lo*rs]
	mulRowsAsm(&ad[lo*rs], rs, ks, &bd[0], kk, n, &od[0], hi-lo)
}

// mulBTAVX2 sets dst(i,j) = aᵢ·bⱼ, or dst(i,j) = (dst(i,j) + aᵢ·bⱼ) + bias[j]
// when bias is non-nil, each dot product summed k-ascending from zero. The
// assembly covers the columns in blocks of four; the Go loop below finishes
// the m%4 left over. Callers have checked the shapes.
func mulBTAVX2(a, b *Matrix, bias []float64, dst *Matrix) {
	rows, n, m := a.Rows, a.Cols, b.Rows
	ad, bd, od := a.Data[:rows*n], b.Data[:m*n], dst.Data[:rows*m]
	m4 := 0
	if rows > 0 && n > 0 && m >= 4 {
		var bp *float64
		if bias != nil {
			bp = &bias[:m][0]
		}
		mulBTAsm(&ad[0], &bd[0], &od[0], bp, rows, n, m)
		m4 = m &^ 3
	}
	for i := 0; i < rows; i++ {
		arow, orow := ad[i*n:(i+1)*n], od[i*m:(i+1)*m]
		for j := m4; j < m; j++ {
			s := dot(arow, bd[j*n:(j+1)*n])
			if bias != nil {
				s = (orow[j] + s) + bias[j]
			}
			orow[j] = s
		}
	}
}

package mat

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID sets OSXSAVE, AVX and AVX2, and
// XCR0 (read with XGETBV) enables both the XMM and the YMM state.
var haveAVX2 = detectAVX2()

// haveFMA reports whether CPUID.1:ECX sets FMA. With haveAVX2 it is the
// test internal/cpu makes for HasAVX && HasFMA, which is the condition under
// which math.Exp runs the FMA sequence the cell kernel repeats.
var haveFMA = detectFMA()

func detectFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// mulRowsAsm is mulRows in AVX2 over rows output rows: out(i,j) =
// Σₖ A(i,k)·b(k,j) for i < rows, j < n, k < kk, with A(i,k) = a[i*rs + k*ks],
// b row-major k×n and out row-major rows×n. rows, n and kk must be positive.
//
//go:noescape
func mulRowsAsm(a *float64, rs, ks int, b *float64, kk, n int, out *float64, rows int)

// mulBTAsm writes, for i < rows and j < m&^3, s = aᵢ·bⱼ (a row-major rows×n,
// b row-major m×n) into out (row-major rows×m) as out(i,j) = s, or as
// out(i,j) = (out(i,j) + s) + bias[j] when bias is non-nil. rows and n must
// be positive.
//
//go:noescape
func mulBTAsm(a, b, out, bias *float64, rows, n, m int)

// cellRowAsm runs LSTMCellRow's pass over lanes 0..n-1 of a row whose
// gates are hh wide, four lanes at a time and the last n%4 under a lane
// mask; gates points at lane 0 of the i gate and tanhC may be nil. It
// returns n, or the first lane of the first group it left untouched
// because a lane falls outside what it reproduces bit for bit. n must be
// positive.
//
//go:noescape
func cellRowAsm(gates *float64, hh int, cPrev, c, h, tanhC *float64, n int) int

// expAsm sets each lane of x to the cell kernel's exp of it and returns a
// mask with bit i set when lane i is one the kernel leaves to the scalar
// reference. Only tests call it.
//
//go:noescape
func expAsm(x *[4]float64) (special int)

package mat

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID sets OSXSAVE, AVX and AVX2, and
// XCR0 (read with XGETBV) enables both the XMM and the YMM state.
var haveAVX2 = detectAVX2()

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

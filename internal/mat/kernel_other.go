//go:build !amd64

package mat

// haveAVX2 is false off amd64: the Go kernels serve every product.
const haveAVX2 = false

// haveFMA is false off amd64: the cell pass runs in Go.
const haveFMA = false

func mulRowsAsm(a *float64, rs, ks int, b *float64, kk, n int, out *float64, rows int) {
	panic("mat: AVX2 kernel called off amd64")
}

func mulBTAsm(a, b, out, bias *float64, rows, n, m int) {
	panic("mat: AVX2 kernel called off amd64")
}

func cellRowAsm(gates *float64, hh int, cPrev, c, h, tanhC *float64, n int) int {
	panic("mat: AVX2 kernel called off amd64")
}

func expAsm(x *[4]float64) (special int) {
	panic("mat: AVX2 kernel called off amd64")
}

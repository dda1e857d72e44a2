// Package wood implements the Wood et al. baseline (Middleware 2008) as
// described in Section IV-A of the LoadDynamics paper: robust linear
// regression fitted with iteratively reweighted least squares (Tukey
// bisquare weights), refined online as new observations arrive.
//
// Wood robustly fits a linear trend of the JAR over a sliding window of
// recent intervals and extrapolates one step — simple and adaptive, but
// blind to seasonality, which is why the paper reports high errors for it.
package wood

import (
	"math"
	"sort"

	"loaddynamics/internal/mat"
)

// weightedLS solves min Σ wᵢ(xᵢ·β − yᵢ)² by scaling rows with √wᵢ.
func weightedLS(x *mat.Matrix, y []float64, wts []float64) ([]float64, error) {
	rows, d := x.Rows, x.Cols
	wx := mat.New(rows, d)
	wy := make([]float64, rows)
	for i := 0; i < rows; i++ {
		s := math.Sqrt(wts[i])
		for j := 0; j < d; j++ {
			wx.Set(i, j, x.At(i, j)*s)
		}
		wy[i] = y[i] * s
	}
	return mat.LeastSquares(wx, wy, 1e-8)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

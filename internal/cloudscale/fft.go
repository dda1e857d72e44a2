// Package cloudscale implements the CloudScale baseline (Shen et al., SoCC
// 2011) as described in Section IV-A of the LoadDynamics paper: a fast
// Fourier transform detects repeating patterns in the workload signal; when
// a dominant periodicity exists the signature (value one period ago,
// trend-corrected) drives the forecast, otherwise a discrete-time Markov
// chain over quantized load states predicts the next interval.
package cloudscale

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the discrete Fourier transform of x using an iterative
// radix-2 Cooley–Tukey algorithm. len(x) must be a power of two.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("cloudscale: FFT length %d is not a power of two", n)
	}
	out := make([]complex128, n)
	copy(out, x)

	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			out[i], out[j] = out[j], out[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}

	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := cmplx.Exp(complex(0, step*float64(k)))
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
	return out, nil
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// DominantPeriod analyzes a real signal and returns the period (in
// intervals) of its strongest non-DC spectral component together with the
// ratio of that component's power to the average non-DC power. A high ratio
// (≳ 10) indicates a strongly repeating pattern.
func DominantPeriod(signal []float64) (period int, powerRatio float64, err error) {
	if len(signal) < 8 {
		return 0, 0, fmt.Errorf("cloudscale: signal too short for spectral analysis (%d values)", len(signal))
	}
	mean := 0.0
	for _, v := range signal {
		mean += v
	}
	mean /= float64(len(signal))

	n := nextPow2(len(signal))
	buf := make([]complex128, n)
	for i, v := range signal {
		buf[i] = complex(v-mean, 0)
	}
	spec, err := FFT(buf)
	if err != nil {
		return 0, 0, err
	}
	// Only bins 1..n/2 carry unique information for a real signal.
	bestBin, bestPow, totalPow := 0, 0.0, 0.0
	for k := 1; k <= n/2; k++ {
		p := real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k])
		totalPow += p
		if p > bestPow {
			bestPow = p
			bestBin = k
		}
	}
	if bestBin == 0 || totalPow == 0 {
		return 0, 0, nil
	}
	avg := totalPow / float64(n/2)
	return int(math.Round(float64(n) / float64(bestBin))), bestPow / avg, nil
}

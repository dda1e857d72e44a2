package mat

import (
	"math"
	"math/rand"
	"testing"
)

// requireCellKernel skips t on a host where the cell kernel does not run.
func requireCellKernel(t *testing.T) {
	t.Helper()
	if !haveAVX2 || !haveFMA {
		t.Skip("CPU or OS lacks AVX2 or FMA: the cell kernel does not run here, only its Go reference")
	}
}

// sameBits reports whether got and want hold the same bits, two NaNs
// counting as equal whatever their payloads (see firstBitDiff).
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// expSpecial reports whether math.Exp leaves its main path for x: x is NaN
// or ±Inf, or the result is +Inf, zero or subnormal. The kernel may flag
// only such lanes.
func expSpecial(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return true
	}
	r := math.Exp(x)
	return math.IsInf(r, 1) || r < 0x1p-1022
}

// sweepInputs returns n inputs drawn a quarter each from the draws, then
// the boundary values, each with both signs.
func sweepInputs(rng *rand.Rand, n int, boundary []float64, draws ...func() float64) []float64 {
	xs := make([]float64, 0, n+2*len(boundary))
	for _, draw := range draws {
		for i := 0; i < n/len(draws); i++ {
			xs = append(xs, draw())
		}
	}
	for _, b := range boundary {
		xs = append(xs, b, -b)
	}
	return xs
}

func randomBits(rng *rand.Rand) func() float64 {
	return func() float64 { return math.Float64frombits(rng.Uint64()) }
}

func normal(rng *rand.Rand, sd float64) func() float64 {
	return func() float64 { return rng.NormFloat64() * sd }
}

func uniform(rng *rand.Rand, r float64) func() float64 {
	return func() float64 { return (2*rng.Float64() - 1) * r }
}

// TestCellExpMatchesMathExp holds the kernel's exp to math.Exp on this host
// over 4M inputs from N(0,4²), U(±760), N(0,30²) and random bit patterns,
// plus the edges of archExp's paths: every lane the kernel does not flag
// must have math.Exp's bits, and every flagged lane must be one that
// math.Exp handles off its main path. A toolchain whose archExp changes its
// sequence fails here.
func TestCellExpMatchesMathExp(t *testing.T) {
	requireCellKernel(t)
	rng := rand.New(rand.NewSource(1))
	const overflow = 7.09782712893384e+02 // archExp's overflow threshold
	boundary := []float64{
		0, math.Inf(1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022,
		overflow, math.Nextafter(overflow, 0), math.Nextafter(overflow, 1000),
		709.43, 709.44, 708.39, 708.4, 708.8, 745.1, 745.2, 746, 1e-300, 1e300,
		1022 * math.Ln2, 1023 * math.Ln2, 1023.5 * math.Ln2, 1024 * math.Ln2,
		math.Nextafter(1023.5*math.Ln2, 0), math.Nextafter(1022.5*math.Ln2, 2000),
		0.5 * math.Ln2, math.Nextafter(0.5*math.Ln2, 0),
		// Fusing or not fusing the Horner steps above c3 has changed no
		// result in 2·10⁹ inputs; at c3 this one, found by search, shows it.
		22.416780232151243,
	}
	xs := sweepInputs(rng, 1<<22, boundary,
		normal(rng, 4), uniform(rng, 760), normal(rng, 30), randomBits(rng))
	var lanes [4]float64
	flagged := 0
	for i := 0; i < len(xs); i += 4 {
		n := copy(lanes[:], xs[i:])
		for j := n; j < 4; j++ {
			lanes[j] = 0
		}
		mask := expAsm(&lanes)
		for j := 0; j < n; j++ {
			x := xs[i+j]
			if mask&(1<<j) != 0 {
				flagged++
				if !expSpecial(x) {
					t.Fatalf("exp(%v) (%#x) flagged, but math.Exp gives the normal %v", x, math.Float64bits(x), math.Exp(x))
				}
				continue
			}
			if want := math.Exp(x); math.Float64bits(lanes[j]) != math.Float64bits(want) {
				t.Fatalf("exp(%v) (%#x) = %v (%#x), math.Exp gives %v (%#x)",
					x, math.Float64bits(x), lanes[j], math.Float64bits(lanes[j]), want, math.Float64bits(want))
			}
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 710, -746, 1e300, -1e300} {
		lanes = [4]float64{x, 1, 1, 1}
		if expAsm(&lanes) != 1 {
			t.Errorf("exp(%v) not flagged", x)
		}
	}
	if flagged == 0 {
		t.Fatal("the sweep flagged no lane: its special inputs are missing")
	}
	t.Logf("%d inputs, %d flagged", len(xs), flagged)
}

// TestCellTanhMatchesMathTanh runs 4M g pre-activations through the cell
// kernel, from N(0,1), U(±50), N(0,20²) and random bit patterns, plus ±0,
// ±Inf, NaN, subnormals and the branch edges 0.625 and 0.5·MAXLOG with
// their neighbours, and holds the activated g to math.Tanh bit for bit.
// cPrev carries the same values, so tanh(c) meets them too; c, h and
// tanh(c) are held to the Go reference.
func TestCellTanhMatchesMathTanh(t *testing.T) {
	requireCellKernel(t)
	restore, _ := SetAVX2ForTest(true)
	defer restore()
	rng := rand.New(rand.NewSource(2))
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	boundary := []float64{
		0, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1040, 1e-300,
		0.625, math.Nextafter(0.625, 0), math.Nextafter(0.625, 1),
		halfMaxLog, math.Nextafter(halfMaxLog, 0), math.Nextafter(halfMaxLog, 100),
		1e-8, 1, 20, 1e300, math.MaxFloat64,
	}
	xs := sweepInputs(rng, 1<<22, boundary,
		normal(rng, 1), uniform(rng, 50), normal(rng, 20), randomBits(rng))
	const hh = 1024
	gates := make([]float64, 4*hh)
	cPrev, c, h, tanhC := make([]float64, hh), make([]float64, hh), make([]float64, hh), make([]float64, hh)
	ref := newCellRow(hh, true)
	for lo := 0; lo < len(xs); lo += hh {
		row := xs[lo:min(lo+hh, len(xs))]
		clear(gates)
		clear(cPrev)
		copy(gates[3*hh:], row)
		copy(cPrev, row)
		ref.set(gates, cPrev)
		LSTMCellRow(gates, cPrev, c, h, tanhC)
		cellRowGo(ref.gates, ref.cPrev, ref.c, ref.h, ref.tanhC, 0, hh)
		for k, x := range row {
			if want := math.Tanh(x); !sameBits(gates[3*hh+k], want) {
				t.Fatalf("tanh(%v) (%#x) = %v (%#x), math.Tanh gives %v (%#x)",
					x, math.Float64bits(x), gates[3*hh+k], math.Float64bits(gates[3*hh+k]), want, math.Float64bits(want))
			}
		}
		if lane, what := ref.diff(gates, c, h, tanhC); lane >= 0 {
			t.Fatalf("row at input %d: %s[%d] differs from the Go reference", lo, what, lane)
		}
	}
}

// cellRow is one row's operands for the Go reference.
type cellRow struct {
	gates, cPrev, c, h, tanhC []float64
}

func newCellRow(hh int, withTanhC bool) *cellRow {
	r := &cellRow{gates: make([]float64, 4*hh), cPrev: make([]float64, hh), c: make([]float64, hh), h: make([]float64, hh)}
	if withTanhC {
		r.tanhC = make([]float64, hh)
	}
	return r
}

func (r *cellRow) set(gates, cPrev []float64) {
	copy(r.gates, gates)
	copy(r.cPrev, cPrev)
}

// diff returns the first lane (an index into the named slice) where the
// outputs differ from r's, or -1.
func (r *cellRow) diff(gates, c, h, tanhC []float64) (int, string) {
	for _, s := range []struct {
		name      string
		got, want []float64
	}{{"gates", gates, r.gates}, {"c", c, r.c}, {"h", h, r.h}, {"tanhC", tanhC, r.tanhC}} {
		for k := range s.want {
			if !sameBits(s.got[k], s.want[k]) {
				return k, s.name
			}
		}
	}
	return -1, ""
}

// cellValue draws a gate or cell-state value: mostly N(0,4²), and one in
// every rate draws a special one, among them values that overflow or
// underflow σ's exp.
func cellValue(rng *rand.Rand, rate int) float64 {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, -1e300, 1e308, -1e308,
		5e-324, -5e-324, 0x1p-1040, 800, -800, 709.6, -709.6, 708.8, -708.8, 40, -40, 0.625, -0.625,
	}
	if rng.Intn(rate) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64() * 4
}

// TestCellRowMatchesReference runs LSTMCellRow on both kernel paths against
// the Go reference over widths 1–23 (every remainder of the four-lane
// groups), with NaN, ±Inf, ±0, huge and subnormal values in the gates and
// cPrev on two rows in three, tanhC nil and non-nil, and c aliasing cPrev
// as inference passes it.
func TestCellRowMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		if useAVX2 {
			requireCellKernel(t)
		}
		rng := rand.New(rand.NewSource(3))
		for hh := 1; hh <= 23; hh++ {
			for n := 0; n < 900; n++ {
				rate := []int{1 << 30, 64, 8}[n%3]
				alias, withTanhC := n%4 == 1, n%2 == 0
				gates, cPrev := make([]float64, 4*hh), make([]float64, hh)
				for i := range gates {
					gates[i] = cellValue(rng, rate)
				}
				for i := range cPrev {
					cPrev[i] = cellValue(rng, rate)
				}
				ref := newCellRow(hh, withTanhC)
				ref.set(gates, cPrev)
				c, h := make([]float64, hh), make([]float64, hh)
				var tanhC []float64
				if withTanhC {
					tanhC = make([]float64, hh)
				}
				if alias {
					c = cPrev
					ref.c = ref.cPrev
				}
				LSTMCellRow(gates, cPrev, c, h, tanhC)
				cellRowGo(ref.gates, ref.cPrev, ref.c, ref.h, ref.tanhC, 0, hh)
				if lane, what := ref.diff(gates, c, h, tanhC); lane >= 0 {
					t.Fatalf("hh=%d row %d (alias %v, tanhC %v): %s[%d] differs from the Go reference",
						hh, n, alias, withTanhC, what, lane)
				}
			}
		}
	})
}

// TestCellKernelFlagsAndLeavesSpecialGroups calls the assembly directly:
// it must return the first lane of the first group that holds a special
// lane (a NaN in g, cPrev or c, or a σ exp off math.Exp's main path), with
// every lane before it matching the Go reference and nothing from that
// group on written.
func TestCellKernelFlagsAndLeavesSpecialGroups(t *testing.T) {
	requireCellKernel(t)
	rng := rand.New(rand.NewSource(4))
	stopped := 0
	for hh := 1; hh <= 23; hh++ {
		for n := 0; n < 400; n++ {
			gates, cPrev := make([]float64, 4*hh), make([]float64, hh)
			for i := range gates {
				gates[i] = cellValue(rng, 24)
			}
			for i := range cPrev {
				cPrev[i] = cellValue(rng, 24)
			}
			c, h, tanhC := make([]float64, hh), make([]float64, hh), make([]float64, hh)
			for i := range c {
				c[i], h[i], tanhC[i] = -7, -7, -7
			}
			in := append([]float64(nil), gates...)
			ref := newCellRow(hh, true)
			ref.set(gates, cPrev)
			cellRowGo(ref.gates, ref.cPrev, ref.c, ref.h, ref.tanhC, 0, hh)

			k := cellRowAsm(&gates[0], hh, &cPrev[0], &c[0], &h[0], &tanhC[0], hh)
			if k < 0 || k > hh || (k < hh && k%4 != 0) {
				t.Fatalf("hh=%d: kernel returned lane %d", hh, k)
			}
			for j := 0; j < hh; j++ {
				for g := 0; g < 4; g++ {
					got, want := gates[g*hh+j], ref.gates[g*hh+j]
					if j >= k {
						want = in[g*hh+j]
					}
					if !sameBits(got, want) {
						t.Fatalf("hh=%d stop %d: gate %d lane %d = %v, want %v", hh, k, g, j, got, want)
					}
				}
				if j >= k {
					if c[j] != -7 || h[j] != -7 || tanhC[j] != -7 {
						t.Fatalf("hh=%d stop %d: lane %d written", hh, k, j)
					}
				} else if !sameBits(c[j], ref.c[j]) || !sameBits(h[j], ref.h[j]) || !sameBits(tanhC[j], ref.tanhC[j]) {
					t.Fatalf("hh=%d stop %d: lane %d differs from the Go reference", hh, k, j)
				}
			}
			if k == hh {
				continue
			}
			stopped++
			special := false
			for j := k; j < min(k+4, hh); j++ {
				special = special || math.IsNaN(in[3*hh+j]) || math.IsNaN(cPrev[j]) || math.IsNaN(ref.c[j]) ||
					expSpecial(-in[j]) || expSpecial(-in[hh+j]) || expSpecial(-in[2*hh+j])
			}
			if !special {
				t.Fatalf("hh=%d: kernel stopped at lane %d, a group with no special lane", hh, k)
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no row stopped the kernel: the special values are missing")
	}
}

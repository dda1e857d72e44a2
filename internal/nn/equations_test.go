package nn

import (
	"math"
	"testing"
)

// TestCellMatchesPaperEquations verifies the implementation against the
// exact LSTM equations of Section III-A of the paper, hand-computed for a
// one-unit cell over a two-step sequence:
//
//	i_t = σ(W_i·J_t + U_i·h_{t−1} + b_i)
//	f_t = σ(W_f·J_t + U_f·h_{t−1} + b_f)
//	o_t = σ(W_o·J_t + U_o·h_{t−1} + b_o)
//	g_t = tanh(W_g·J_t + U_g·h_{t−1} + b_g)
//	C_t = f_t ⊙ C_{t−1} + i_t ⊙ g_t
//	h_t = o_t ⊙ tanh(C_t)
//	P   = W_y·h_last + b_y
func TestCellMatchesPaperEquations(t *testing.T) {
	m := newTestNet(t, Config{InputSize: 1, HiddenSize: 1, Layers: 1, OutputSize: 1}, 1)

	// Overwrite all weights with hand-chosen values. Gate packing order in
	// Wx/Wh/B is [i, f, o, g].
	wi, wf, wo, wg := 0.5, -0.3, 0.8, 1.1 // W (input weights)
	ui, uf, uo, ug := 0.2, 0.4, -0.5, 0.7 // U (recurrent weights)
	bi, bf, bo, bg := 0.1, 0.2, -0.1, 0.0 // b (biases)
	wy, by := 1.5, -0.2                   // dense head T

	ly := &m.w.layers[0]
	copy(ly.Wx.Data, []float64{wi, wf, wo, wg})
	copy(ly.Wh.Data, []float64{ui, uf, uo, ug})
	copy(ly.B.Data, []float64{bi, bf, bo, bg})
	m.w.Wy.Data[0] = wy
	m.w.By.Data[0] = by

	sigma := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

	// Hand computation for the sequence J = (0.6, -0.4).
	j1, j2 := 0.6, -0.4
	h0, c0 := 0.0, 0.0

	i1 := sigma(wi*j1 + ui*h0 + bi)
	f1 := sigma(wf*j1 + uf*h0 + bf)
	o1 := sigma(wo*j1 + uo*h0 + bo)
	g1 := math.Tanh(wg*j1 + ug*h0 + bg)
	c1 := f1*c0 + i1*g1
	h1 := o1 * math.Tanh(c1)

	i2 := sigma(wi*j2 + ui*h1 + bi)
	f2 := sigma(wf*j2 + uf*h1 + bf)
	o2 := sigma(wo*j2 + uo*h1 + bo)
	g2 := math.Tanh(wg*j2 + ug*h1 + bg)
	c2 := f2*c1 + i2*g2
	h2 := o2 * math.Tanh(c2)

	want := wy*h2 + by

	got, err := m.Predict([]float64{j1, j2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("network output %v, hand-computed equations give %v", got, want)
	}
}

// TestForgetGateErasesMemory checks the paper's description that "the
// forget gate f_t allows the network to erase past information from
// C_{t−1}": clamping f to ≈0 (large negative bias) must make the output
// independent of earlier inputs.
func TestForgetGateErasesMemory(t *testing.T) {
	m := newTestNet(t, Config{InputSize: 1, HiddenSize: 3, Layers: 1, OutputSize: 1}, 2)
	ly := &m.w.layers[0]
	h := 3
	for k := 0; k < h; k++ {
		ly.B.Data[h+k] = -50 // forget bias → f ≈ 0
		// Also sever the recurrent paths so h_{t−1} cannot carry history.
		for j := 0; j < h; j++ {
			ly.Wh.Data[(0*h+k)*h+j] = 0 // U_i
			ly.Wh.Data[(2*h+k)*h+j] = 0 // U_o
			ly.Wh.Data[(3*h+k)*h+j] = 0 // U_g
		}
	}
	a, err := m.Predict([]float64{9.9, -3.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Predict([]float64{-1.2, 8.8, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("with f≈0 and severed recurrence, output should depend only on the last input: %v vs %v", a, b)
	}
}

// TestCellMemoryCarriesLongTermState is the converse: with the forget gate
// saturated open (f ≈ 1) the cell memory accumulates, so early inputs
// influence the final output — the "long-term dependency" capability the
// paper selects LSTMs for.
func TestCellMemoryCarriesLongTermState(t *testing.T) {
	m := newTestNet(t, Config{InputSize: 1, HiddenSize: 2, Layers: 1, OutputSize: 1}, 3)
	ly := &m.w.layers[0]
	for k := 0; k < 2; k++ {
		ly.B.Data[2+k] = 50 // forget bias → f ≈ 1
	}
	long := make([]float64, 20)
	long[0] = 5 // early input
	a, err := m.Predict(long)
	if err != nil {
		t.Fatal(err)
	}
	long[0] = -5
	b, err := m.Predict(long)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) < 1e-9 {
		t.Fatal("with f≈1 the first input of a 20-step sequence should still influence the output")
	}
}

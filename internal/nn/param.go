// Package nn implements the neural-network substrate for LoadDynamics: a
// multi-layer LSTM with a fully-connected output head, trained with full
// backpropagation-through-time, mean-squared-error loss and the Adam
// optimizer — the exact model of Section III-A of the paper. Everything is
// pure Go on float64; no external BLAS or autograd.
package nn

import (
	"math"

	"loaddynamics/internal/mat"
)

// tensors holds one value per trainable weight of a network, as matrix
// views into one flat slab. The slab is in Snapshot order: per layer Wx, Wh
// and B, then the head Wy and By. A network's weights are a tensors; a
// training run keeps its gradients in a second one of the same layout, and
// the optimizer and the gradient clip walk the flat slabs element by element
// in that order.
type tensors struct {
	flat   []float64
	layers []layerTensors
	Wy, By mat.Matrix // fully-connected head T
}

// layerTensors are the tensors of one LSTM layer. The four gates (input,
// forget, output, candidate — i, f, o, g) are packed along the row
// dimension in that order, so Wx is (4H × D), Wh is (4H × H) and B is
// (1 × 4H).
type layerTensors struct {
	Wx, Wh, B mat.Matrix
}

// shapes returns the (rows, cols) of every tensor in slab order.
func (c Config) shapes() [][2]int {
	h := c.HiddenSize
	out := make([][2]int, 0, 3*c.Layers+2)
	for l := 0; l < c.Layers; l++ {
		d := c.InputSize
		if l > 0 {
			d = h
		}
		out = append(out, [2]int{4 * h, d}, [2]int{4 * h, h}, [2]int{1, 4 * h})
	}
	return append(out, [2]int{c.OutputSize, h}, [2]int{1, c.OutputSize})
}

// newTensors allocates one zeroed slab for the shapes and lays out its
// views.
func newTensors(shapes [][2]int) tensors {
	n := 0
	for _, s := range shapes {
		n += s[0] * s[1]
	}
	t := tensors{flat: make([]float64, n), layers: make([]layerTensors, (len(shapes)-2)/3)}
	off := 0
	view := func(s [2]int) mat.Matrix {
		n := s[0] * s[1]
		m := mat.Matrix{Rows: s[0], Cols: s[1], Data: t.flat[off : off+n : off+n]}
		off += n
		return m
	}
	for l := range t.layers {
		ly := &t.layers[l]
		ly.Wx, ly.Wh, ly.B = view(shapes[3*l]), view(shapes[3*l+1]), view(shapes[3*l+2])
	}
	t.Wy, t.By = view(shapes[len(shapes)-2]), view(shapes[len(shapes)-1])
	return t
}

// views returns every tensor in slab order.
func (t *tensors) views() []*mat.Matrix {
	out := make([]*mat.Matrix, 0, 3*len(t.layers)+2)
	for l := range t.layers {
		ly := &t.layers[l]
		out = append(out, &ly.Wx, &ly.Wh, &ly.B)
	}
	return append(out, &t.Wy, &t.By)
}

// adam implements the Adam optimization algorithm (Kingma & Ba, 2015) with
// the standard bias-corrected moment estimates. Its moments live as long
// as the training run that owns it.
type adam struct {
	lr, beta1, beta2, eps float64
	step                  int
	m, v                  []float64 // first/second moment estimates, one per weight
}

// newAdam returns an optimizer for n weights with the canonical β₁=0.9,
// β₂=0.999, ε=1e-8 defaults and zeroed moments.
func newAdam(lr float64, n int) *adam {
	return &adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n)}
}

// update applies one Adam step to the weights w given their gradients g.
func (a *adam) update(w, g []float64) {
	a.step++
	c1 := 1 - math.Pow(a.beta1, float64(a.step))
	c2 := 1 - math.Pow(a.beta2, float64(a.step))
	for i, gi := range g {
		a.m[i] = float64(a.beta1*a.m[i]) + float64((1-a.beta1)*gi)
		a.v[i] = float64(a.beta2*a.v[i]) + float64((1-a.beta2)*gi*gi)
		mHat := a.m[i] / c1
		vHat := a.v[i] / c2
		w[i] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
	}
}

// clipGradNorm rescales the gradients so their Euclidean norm does not
// exceed maxNorm, the standard remedy for exploding LSTM gradients. It
// returns the pre-clip norm.
func clipGradNorm(g []float64, maxNorm float64) float64 {
	var sq float64
	for _, v := range g {
		sq += float64(v * v)
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for i := range g {
			g[i] *= scale
		}
	}
	return norm
}

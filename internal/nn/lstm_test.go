package nn

import (
	"math"
	"math/rand"
	"testing"

	"loaddynamics/internal/mat"
)

func newTestNet(t *testing.T, cfg Config, seed int64) *LSTM {
	t.Helper()
	m, err := NewLSTM(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := Config{1, 4, 2, 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{{0, 4, 1, 1}, {1, 0, 1, 1}, {1, 4, 0, 1}, {1, 4, 1, 0}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v should be invalid", bad)
		}
	}
	if _, err := NewLSTM(Config{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("NewLSTM should reject zero config")
	}
}

func TestNumParamsCounts(t *testing.T) {
	// 1 layer, H=3, D=1: Wx 12x1 + Wh 12x3 + B 12 + Wy 3 + By 1 = 12+36+12+3+1 = 64.
	m := newTestNet(t, Config{1, 3, 1, 1}, 1)
	if got := m.NumParams(); got != 64 {
		t.Fatalf("NumParams = %d, want 64", got)
	}
}

func TestForgetGateBiasInit(t *testing.T) {
	m := newTestNet(t, Config{1, 4, 2, 1}, 1)
	for l, ly := range m.w.layers {
		for j := 0; j < 4; j++ {
			if ly.B.Data[4+j] != 1 {
				t.Fatalf("layer %d forget bias[%d] = %v, want 1", l, j, ly.B.Data[4+j])
			}
			if ly.B.Data[j] != 0 {
				t.Fatalf("layer %d input-gate bias[%d] = %v, want 0", l, j, ly.B.Data[j])
			}
		}
	}
}

func TestPredictDeterministicAndFinite(t *testing.T) {
	m := newTestNet(t, Config{1, 8, 2, 1}, 3)
	hist := []float64{0.1, 0.5, 0.3, 0.9, 0.2}
	a, err := m.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Predict not deterministic: %v vs %v", a, b)
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("Predict returned %v", a)
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	m := newTestNet(t, Config{1, 6, 1, 1}, 5)
	batch := [][]float64{
		{0.1, 0.2, 0.3},
		{0.9, 0.8, 0.7},
		{0.5, 0.5, 0.5},
	}
	got, err := m.PredictBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, hist := range batch {
		single, err := m.Predict(hist)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[i]-single) > 1e-12 {
			t.Fatalf("batch[%d] = %v, single = %v", i, got[i], single)
		}
	}
}

func TestPackInputsErrors(t *testing.T) {
	m := newTestNet(t, Config{1, 4, 1, 1}, 1)
	if _, err := m.PredictBatch(nil); err == nil {
		t.Fatal("expected error for empty batch")
	}
	if _, err := m.PredictBatch([][]float64{{}}); err == nil {
		t.Fatal("expected error for empty history")
	}
	if _, err := m.PredictBatch([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("expected error for ragged batch")
	}
}

// TestGradientsMatchNumeric verifies the full BPTT implementation against
// central finite differences for a small 2-layer network on a batch of 3
// sequences. This is the strongest single correctness check in the package.
func TestGradientsMatchNumeric(t *testing.T) {
	cfg := Config{InputSize: 1, HiddenSize: 3, Layers: 2, OutputSize: 1}
	m := newTestNet(t, cfg, 7)
	rng := rand.New(rand.NewSource(8))
	const bsz, T = 3, 4
	inputs := make([][]float64, bsz)
	targets := make([]float64, bsz)
	for b := range inputs {
		inputs[b] = make([]float64, T)
		for t := range inputs[b] {
			inputs[b][t] = rng.NormFloat64()
		}
		targets[b] = rng.NormFloat64()
	}

	loss := func() float64 {
		l, err := m.Loss(inputs, targets)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	// Analytic gradients.
	grad := newTensors(cfg.shapes())
	xs, err := m.packInputs(inputs)
	if err != nil {
		t.Fatal(err)
	}
	pred, states := m.forward(xs)
	dPred := mat.New(bsz, 1)
	for b := 0; b < bsz; b++ {
		dPred.Set(b, 0, 2*(pred.At(b, 0)-targets[b])/bsz)
	}
	m.backward(dPred, states, &grad)

	// Numeric comparison on every 3rd weight of every parameter tensor.
	const eps = 1e-5
	grads := grad.views()
	for pi, p := range m.w.views() {
		for wi := 0; wi < len(p.Data); wi += 3 {
			orig := p.Data[wi]
			p.Data[wi] = orig + eps
			lp := loss()
			p.Data[wi] = orig - eps
			lm := loss()
			p.Data[wi] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := grads[pi].Data[wi]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)+math.Abs(analytic)) {
				t.Fatalf("param %d weight %d: analytic %v vs numeric %v", pi, wi, analytic, numeric)
			}
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	g := []float64{3, 4, 0} // norm 5
	pre := clipGradNorm(g, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	post := math.Sqrt(g[0]*g[0] + g[1]*g[1])
	if math.Abs(post-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", post)
	}
	// Below the threshold gradients are untouched.
	copy(g, []float64{0.3, 0.4, 0})
	clipGradNorm(g, 1)
	if g[0] != 0.3 || g[1] != 0.4 {
		t.Fatal("gradients below threshold must not be rescaled")
	}
}

func TestAdamMovesTowardMinimum(t *testing.T) {
	// Minimize f(w) = (w-3)² with Adam; gradient = 2(w-3).
	w, g := []float64{0}, []float64{0}
	opt := newAdam(0.1, 1)
	for i := 0; i < 500; i++ {
		g[0] = 2 * (w[0] - 3)
		opt.update(w, g)
	}
	if math.Abs(w[0]-3) > 0.01 {
		t.Fatalf("Adam converged to %v, want 3", w[0])
	}
}

func TestTrainValidatesArguments(t *testing.T) {
	m := newTestNet(t, Config{1, 4, 1, 1}, 1)
	tc := DefaultTrainConfig()
	if _, err := m.Train(nil, nil, tc); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	if _, err := m.Train([][]float64{{1}}, []float64{1, 2}, tc); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	bad := tc
	bad.Epochs = 0
	if _, err := m.Train([][]float64{{1}}, []float64{1}, bad); err == nil {
		t.Fatal("expected error for zero epochs")
	}
	bad = tc
	bad.BatchSize = 0
	if _, err := m.Train([][]float64{{1}}, []float64{1}, bad); err == nil {
		t.Fatal("expected error for zero batch size")
	}
	bad = tc
	bad.LearningRate = 0
	if _, err := m.Train([][]float64{{1}}, []float64{1}, bad); err == nil {
		t.Fatal("expected error for zero learning rate")
	}
}

// TestTrainReducesLoss checks that training actually learns: the loss on a
// noiseless sine-prediction task must drop by a large factor.
func TestTrainReducesLoss(t *testing.T) {
	m := newTestNet(t, Config{1, 10, 1, 1}, 9)
	const n = 12
	var inputs [][]float64
	var targets []float64
	series := make([]float64, 220)
	for i := range series {
		series[i] = 0.5 + 0.4*math.Sin(2*math.Pi*float64(i)/24)
	}
	for k := 0; k+n < len(series); k++ {
		inputs = append(inputs, series[k:k+n])
		targets = append(targets, series[k+n])
	}
	before, err := m.Loss(inputs, targets)
	if err != nil {
		t.Fatal(err)
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 40
	tc.Seed = 2
	if _, err := m.Train(inputs, targets, tc); err != nil {
		t.Fatal(err)
	}
	after, err := m.Loss(inputs, targets)
	if err != nil {
		t.Fatal(err)
	}
	if after > before/5 {
		t.Fatalf("loss %v -> %v: training did not learn", before, after)
	}
	// And predictions should track the sine closely.
	pred, err := m.Predict(inputs[50])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-targets[50]) > 0.15 {
		t.Fatalf("prediction %v vs target %v", pred, targets[50])
	}
}

// TestEarlyStopping ensures patience terminates training before Epochs on a
// trivially learnable constant dataset.
func TestEarlyStopping(t *testing.T) {
	m := newTestNet(t, Config{1, 4, 1, 1}, 4)
	inputs := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	targets := []float64{0.5, 0.5}
	tc := TrainConfig{Epochs: 10000, BatchSize: 2, LearningRate: 0.01, Patience: 3, MinDelta: 1e-3, ClipNorm: 5}
	if _, err := m.Train(inputs, targets, tc); err != nil {
		t.Fatal(err)
	}
	// Success criterion: returns quickly (the 10000-epoch budget would take
	// noticeably long); just assert the model fits the constant.
	p, err := m.Predict(inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 0.2 {
		t.Fatalf("prediction %v, want ≈0.5", p)
	}
}

func TestMultiLayerForwardDiffersFromSingle(t *testing.T) {
	one := newTestNet(t, Config{1, 6, 1, 1}, 11)
	two := newTestNet(t, Config{1, 6, 2, 1}, 11)
	hist := []float64{0.2, 0.4, 0.6}
	a, _ := one.Predict(hist)
	b, _ := two.Predict(hist)
	if a == b {
		t.Fatal("1-layer and 2-layer nets should not produce identical outputs")
	}
}

func TestLossMatchesManualMSE(t *testing.T) {
	m := newTestNet(t, Config{1, 4, 1, 1}, 13)
	inputs := [][]float64{{0.1, 0.2}, {0.3, 0.4}}
	targets := []float64{1, -1}
	preds, err := m.PredictBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := ((preds[0]-1)*(preds[0]-1) + (preds[1]+1)*(preds[1]+1)) / 2
	got, err := m.Loss(inputs, targets)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Loss = %v, want %v", got, want)
	}
}

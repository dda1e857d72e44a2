package nn

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"loaddynamics/internal/mat"
)

// goldenCase pins the exact bits a fixed-seed training run lands on. The
// constants were recorded with the scalar (unblocked) gate, BPTT and cell
// kernels; every later kernel rewrite must execute the same floating-point
// operations in the same order per output element, so these never change.
type goldenCase struct {
	hidden, layers int
	weights        uint64 // FNV-64a over the bits of every final weight
	loss           uint64 // math.Float64bits of the last epoch's loss
	predict        uint64 // FNV-64a over the bits of Predict on each probe
	batch          uint64 // FNV-64a over the bits of PredictBatch on the probes
}

var goldenCases = []goldenCase{
	{hidden: 5, layers: 1, weights: 0xba084558044a5c55, loss: 0x3fdc2b543df7a5b2, predict: 0x6fd5ce072eb19719, batch: 0x6fd5ce072eb19719},
	{hidden: 5, layers: 2, weights: 0xc906b23d4e0fcac8, loss: 0x3fbb3deead4b1937, predict: 0x9f95887dd6fb7281, batch: 0x9f95887dd6fb7281},
	{hidden: 16, layers: 1, weights: 0x4f070ab238e03e75, loss: 0x3fb6bc2f5e0c6818, predict: 0x416a31db65eef9aa, batch: 0x416a31db65eef9aa},
	{hidden: 16, layers: 2, weights: 0xffdd71878e1378c5, loss: 0x3fb4b3a15f01d013, predict: 0xd0363ec6041fc882, batch: 0xd0363ec6041fc882},
}

// goldenData builds the training set: 29 histories of length 9 with exact
// zeros sprinkled in (min-max scaled traces contain them), so a batch size of
// 8 leaves a partial last mini-batch of 5.
func goldenData(rng *rand.Rand) (inputs [][]float64, targets []float64) {
	const n, T = 29, 9
	inputs = make([][]float64, n)
	targets = make([]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, T)
		for j := range inputs[i] {
			if rng.Intn(5) == 0 {
				continue
			}
			inputs[i][j] = rng.Float64()
		}
		targets[i] = rng.Float64()
	}
	return inputs, targets
}

func hashFloats(vs ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		for _, x := range v {
			b := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestGoldenTrainingBits trains fixed-seed LSTMs for a few epochs and checks
// the final weights, the last epoch loss and the forecasts bit for bit.
// TestStreamingInferenceParity compares inference against the training
// forward pass, and both share one cell kernel, so drift in that kernel
// would go unseen there; this test catches it.
//
// Both run once on the Go kernels and once on the AVX2 kernels (forEachKernel):
// the two must land on the same bits.
func TestGoldenTrainingBits(t *testing.T) {
	forEachKernel(t, testGoldenTrainingBits)
}

// forEachKernel runs f as one subtest on internal/mat's Go kernels and one on
// its AVX2 kernels, skipping the AVX2 leg on a CPU without AVX2. It flips a
// package-wide selector, so its callers must not run in parallel.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(path.name, func(t *testing.T) {
			restore, ok := mat.SetAVX2ForTest(path.avx2)
			if !ok {
				t.Skip("CPU or OS lacks AVX2: only the Go kernels run here")
			}
			t.Cleanup(restore)
			f(t)
		})
	}
}

func testGoldenTrainingBits(t *testing.T) {
	for _, gc := range goldenCases {
		rng := rand.New(rand.NewSource(int64(100*gc.hidden + gc.layers)))
		m, err := NewLSTM(Config{InputSize: 1, HiddenSize: gc.hidden, Layers: gc.layers, OutputSize: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		inputs, targets := goldenData(rng)
		tc := DefaultTrainConfig()
		tc.Epochs = 4
		tc.BatchSize = 8
		tc.Patience = 0
		tc.Seed = 17
		loss, err := m.Train(inputs, targets, tc)
		if err != nil {
			t.Fatal(err)
		}

		probes := inputs[:7]
		single := make([]float64, len(probes))
		for i, h := range probes {
			if single[i], err = m.Predict(h); err != nil {
				t.Fatal(err)
			}
		}
		batch, err := m.PredictBatch(probes)
		if err != nil {
			t.Fatal(err)
		}

		got := goldenCase{
			hidden:  gc.hidden,
			layers:  gc.layers,
			weights: hashFloats(m.w.flat),
			loss:    math.Float64bits(loss),
			predict: hashFloats(single),
			batch:   hashFloats(batch),
		}
		if got != gc {
			t.Errorf("H=%d L=%d: got {hidden: %d, layers: %d, weights: %#x, loss: %#x, predict: %#x, batch: %#x}",
				gc.hidden, gc.layers, got.hidden, got.layers, got.weights, got.loss, got.predict, got.batch)
		}
	}
}

package nn

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks at the shapes the serving fleets and BO candidate builds
// actually run (the root BenchmarkLSTMInference uses H64/L3/T128, which no
// workload does). Compare kernels with paired runs of test binaries built
// from each tree:
//
//	go test -c -o nn.test ./internal/nn
//	./nn.test -test.run '^$' -test.bench 'Shape' -test.count 6

var (
	benchSinkF float64
	benchSinkE error
)

func benchNet(b *testing.B, hidden, layers int) *LSTM {
	b.Helper()
	m, err := NewLSTM(Config{InputSize: 1, HiddenSize: hidden, Layers: layers, OutputSize: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchPredict(b *testing.B, hidden, layers, T int) {
	m := benchNet(b, hidden, layers)
	hist := randHistories(rand.New(rand.NewSource(2)), 1, T)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkF, benchSinkE = m.Predict(hist)
	}
}

// BenchmarkShapePredictH16L2T24 is a single-history forecast at the
// autoscale-poll fleet's model shape.
func BenchmarkShapePredictH16L2T24(b *testing.B) { benchPredict(b, 16, 2, 24) }

// BenchmarkShapePredictH8L1T12 is a single-history forecast at the smaller
// fleet shape.
func BenchmarkShapePredictH8L1T12(b *testing.B) { benchPredict(b, 8, 1, 12) }

// BenchmarkShapePredictH5L1T12 and BenchmarkShapePredictH13L2T24 are
// single-history forecasts at cell sizes that are not multiples of four, so
// the hidden-width products end in a partial block.
func BenchmarkShapePredictH5L1T12(b *testing.B)  { benchPredict(b, 5, 1, 12) }
func BenchmarkShapePredictH13L2T24(b *testing.B) { benchPredict(b, 13, 2, 24) }

// trainStepFixture is a trainer for m with one mini-batch of 32 random
// histories, 24 steps long, and their targets.
func trainStepFixture(m *LSTM, rng *rand.Rand) (tr *trainer, inputs [][]float64, targets []float64, batch []int) {
	const bsz, T = 32, 24
	inputs = randHistories(rng, bsz, T)
	targets = make([]float64, bsz)
	batch = make([]int, bsz)
	for i := range targets {
		targets[i] = rng.Float64()
		batch[i] = i
	}
	return newTrainer(m, DefaultTrainConfig()), inputs, targets, batch
}

// benchTrainStep times one steady-state mini-batch training step (forward,
// BPTT, clip, Adam) at batch size 32 and sequence length 24. The first
// step, which sizes the trainer's batch workspace, runs before the timer.
func benchTrainStep(b *testing.B, hidden, layers int) {
	tr, inputs, targets, batch := trainStepFixture(benchNet(b, hidden, layers), rand.New(rand.NewSource(3)))
	if _, err := tr.step(inputs, targets, batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkF, benchSinkE = tr.step(inputs, targets, batch)
	}
}

func BenchmarkShapeTrainStepH16L2T24B32(b *testing.B) { benchTrainStep(b, 16, 2) }

// BenchmarkShapeTrainStepH5L1T24B32 and BenchmarkShapeTrainStepH13L2T24B32
// train at cell sizes that are not multiples of four.
func BenchmarkShapeTrainStepH5L1T24B32(b *testing.B)  { benchTrainStep(b, 5, 1) }
func BenchmarkShapeTrainStepH13L2T24B32(b *testing.B) { benchTrainStep(b, 13, 2) }

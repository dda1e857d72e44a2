package nn

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// referencePredictBatch is the pre-streaming inference path: pack the batch
// into time-major matrices and run the training forward pass. The streaming
// path must reproduce it bit for bit.
func (m *LSTM) referencePredictBatch(histories [][]float64) ([]float64, error) {
	xs, err := m.packInputs(histories)
	if err != nil {
		return nil, err
	}
	pred, _ := m.forward(xs)
	out := make([]float64, pred.Rows)
	for i := range out {
		out[i] = pred.At(i, 0)
	}
	return out, nil
}

func testNet(t *testing.T, layers int) *LSTM {
	t.Helper()
	m, err := NewLSTM(Config{InputSize: 1, HiddenSize: 5, Layers: layers, OutputSize: 1}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randHistories(rng *rand.Rand, bsz, T int) [][]float64 {
	hs := make([][]float64, bsz)
	for b := range hs {
		hs[b] = make([]float64, T)
		for t := range hs[b] {
			hs[b][t] = rng.NormFloat64()
		}
	}
	return hs
}

// TestStreamingInferenceParity pins the streaming pooled inference path to
// the packInputs+forward reference, bit for bit, across layer counts, batch
// sizes and sequence lengths — including repeated calls that exercise pooled
// (dirty) workspaces — on both kernel paths.
func TestStreamingInferenceParity(t *testing.T) {
	forEachKernel(t, testStreamingInferenceParity)
}

func testStreamingInferenceParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, layers := range []int{1, 2, 3} {
		m := testNet(t, layers)
		for _, bsz := range []int{1, 2, 7} {
			for _, T := range []int{1, 4, 13} {
				for round := 0; round < 3; round++ { // round > 0 reuses pooled state
					hs := randHistories(rng, bsz, T)
					want, err := m.referencePredictBatch(hs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := m.PredictBatch(hs)
					if err != nil {
						t.Fatal(err)
					}
					for b := range want {
						if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
							t.Fatalf("layers=%d bsz=%d T=%d round=%d history %d: streaming %v != reference %v",
								layers, bsz, T, round, b, got[b], want[b])
						}
					}
					if bsz == 1 {
						single, err := m.Predict(hs[0])
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(single) != math.Float64bits(want[0]) {
							t.Fatalf("layers=%d T=%d round=%d: Predict %v != reference %v", layers, T, round, single, want[0])
						}
					}
				}
			}
		}
	}
}

// TestPredictBatchRowsMatchSingle pins that each row of a batched forecast
// is bit-identical to predicting that history alone — the property the
// :batch endpoint's fused fan-in relies on.
func TestPredictBatchRowsMatchSingle(t *testing.T) {
	m := testNet(t, 2)
	rng := rand.New(rand.NewSource(3))
	hs := randHistories(rng, 5, 8)
	batch, err := m.PredictBatch(hs)
	if err != nil {
		t.Fatal(err)
	}
	for b, h := range hs {
		single, err := m.Predict(h)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(single) != math.Float64bits(batch[b]) {
			t.Fatalf("history %d: single %v != batch row %v", b, single, batch[b])
		}
	}
}

// TestPredictValidation pins the error behaviour of the streaming fast
// paths.
func TestPredictValidation(t *testing.T) {
	m := testNet(t, 1)
	if _, err := m.Predict(nil); err == nil {
		t.Fatal("Predict(nil) should fail")
	}
	if _, err := m.PredictBatch(nil); err == nil {
		t.Fatal("PredictBatch(nil) should fail")
	}
	if _, err := m.PredictBatch([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged batch should fail")
	}
	if err := m.PredictBatchInto([][]float64{{1, 2}}, make([]float64, 2)); err == nil {
		t.Fatal("mis-sized out should fail")
	}
}

// Predict rejects a multivariate config with an error that names Predict
// (it never goes through packInputs).
func TestPredictMultivariateErrorNamesPredict(t *testing.T) {
	m, err := NewLSTM(Config{InputSize: 2, HiddenSize: 3, Layers: 1, OutputSize: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Predict([]float64{1, 2})
	if err == nil {
		t.Fatal("Predict on a multivariate config should fail")
	}
	if msg := err.Error(); !strings.Contains(msg, "Predict") || strings.Contains(msg, "packInputs") {
		t.Fatalf("error %q should name Predict, not packInputs", msg)
	}
}

// TestConcurrentPredict hammers the pooled inference path from many
// goroutines; under -race this verifies workspace checkout is properly
// isolated, and the results must stay bit-identical to a serial reference.
func TestConcurrentPredict(t *testing.T) {
	m := testNet(t, 2)
	rng := rand.New(rand.NewSource(11))
	hs := randHistories(rng, 8, 10)
	want := make([]float64, len(hs))
	for b, h := range hs {
		v, err := m.Predict(h)
		if err != nil {
			t.Fatal(err)
		}
		want[b] = v
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				b := (g + iter) % len(hs)
				v, err := m.Predict(hs[b])
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(v) != math.Float64bits(want[b]) {
					t.Errorf("goroutine %d iter %d: got %v, want %v", g, iter, v, want[b])
					return
				}
				if iter%5 == 0 {
					batch, err := m.PredictBatch(hs)
					if err != nil {
						t.Error(err)
						return
					}
					for j := range batch {
						if math.Float64bits(batch[j]) != math.Float64bits(want[j]) {
							t.Errorf("goroutine %d iter %d: batch row %d got %v, want %v", g, iter, j, batch[j], want[j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

package nn

import (
	"math/rand"
	"testing"

	"loaddynamics/internal/mat"
)

// TestWorkspaceReuseMatchesFresh is the buffer-hygiene property: running
// forward/backward through a training run's cached workspace — after it has
// been polluted by earlier batches of the same and of different shapes —
// must produce bit-identical predictions and gradients to a fresh throwaway
// workspace.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := NewLSTM(Config{InputSize: 1, HiddenSize: 6, Layers: 2, OutputSize: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(m, DefaultTrainConfig())
	fresh := newTensors(m.Cfg.shapes())

	randBatch := func(bsz, T int) ([][]float64, *mat.Matrix) {
		hs := make([][]float64, bsz)
		for i := range hs {
			hs[i] = make([]float64, T)
			for j := range hs[i] {
				hs[i][j] = rng.NormFloat64()
			}
		}
		dPred := mat.New(bsz, 1)
		for i := 0; i < bsz; i++ {
			dPred.Set(i, 0, rng.NormFloat64())
		}
		return hs, dPred
	}

	// Alternate batch shapes so the workspace cache is hit, missed, and
	// re-hit with stale contents in between.
	shapes := []struct{ bsz, T int }{{4, 5}, {3, 5}, {4, 5}, {3, 5}, {4, 5}}
	for round, sh := range shapes {
		hs, dPred := randBatch(sh.bsz, sh.T)

		// Reference: fully fresh buffers.
		xs, err := m.packInputs(hs)
		if err != nil {
			t.Fatal(err)
		}
		clear(fresh.flat)
		predFresh, statesFresh := m.forward(xs)
		predFreshCopy := predFresh.Clone()
		m.backward(dPred, statesFresh, &fresh)

		// Same batch through the cached, previously-used workspace.
		ws := tr.workspace(sh.bsz, sh.T)
		packInputsInto(hs, ws.xs)
		clear(tr.grad.flat)
		predWS, statesWS := m.forwardWS(ws.xs, ws)
		for r := 0; r < predWS.Rows; r++ {
			for c := 0; c < predWS.Cols; c++ {
				if predWS.At(r, c) != predFreshCopy.At(r, c) {
					t.Fatalf("round %d: reused-workspace prediction (%d,%d) = %v, fresh %v",
						round, r, c, predWS.At(r, c), predFreshCopy.At(r, c))
				}
			}
		}
		m.backwardWS(dPred, statesWS, ws, &tr.grad)
		for k, v := range tr.grad.flat {
			if v != fresh.flat[k] {
				t.Fatalf("round %d: grad[%d] = %v via reused workspace, fresh %v",
					round, k, v, fresh.flat[k])
			}
		}
	}
	if len(tr.wss) != 2 {
		t.Fatalf("expected 2 cached workspaces (one per batch size), got %d", len(tr.wss))
	}
}

// Training must not depend on what the network did before: a freshly
// restored model trained on the same data with the same seed must land on
// identical weights as one that has served forecasts and run forward and
// backward passes of an earlier, discarded training run.
func TestTrainDeterministicWithWarmWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m1, err := NewLSTM(Config{InputSize: 1, HiddenSize: 5, Layers: 1, OutputSize: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FromSnapshot(m1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	n, T := 23, 6 // odd n forces a remainder batch → two workspace shapes
	inputs := make([][]float64, n)
	targets := make([]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, T)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()
		}
		targets[i] = rng.Float64()
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 3
	tc.BatchSize = 8
	tc.Seed = 7

	// Use m2 first: warm its inference pools, and run forward and backward
	// through a training run's workspace on unrelated shapes.
	warm, dPred := [][]float64{{1, 2, 3}, {4, 5, 6}}, mat.New(2, 1)
	if _, err := m2.PredictBatch(warm); err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(m2, tc)
	ws := tr.workspace(2, 3)
	packInputsInto(warm, ws.xs)
	_, st := m2.forwardWS(ws.xs, ws)
	m2.backwardWS(dPred, st, ws, &tr.grad)

	l1, err := m1.Train(inputs, targets, tc)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := m2.Train(inputs, targets, tc)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatalf("final losses differ: cold %v, warm %v", l1, l2)
	}
	for k, w := range m1.w.flat {
		if w != m2.w.flat[k] {
			t.Fatalf("weight %d differs: cold %v, warm %v", k, w, m2.w.flat[k])
		}
	}
}

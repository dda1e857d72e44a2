//go:build !race

// Allocation assertions are meaningless under the race detector (it
// instruments every allocation), so this file is build-tagged out of -race
// runs.

package nn

import (
	"math/rand"
	"testing"
)

// TestPredictZeroAlloc pins the tentpole property: steady-state single and
// batched inference allocate nothing. A stray GC can empty the sync.Pool
// mid-measurement, so the assertion tolerates a sub-1 amortized count rather
// than demanding an exact zero.
func TestPredictZeroAlloc(t *testing.T) {
	m := testNet(t, 2)
	rng := rand.New(rand.NewSource(5))
	hs := randHistories(rng, 4, 12)
	out := make([]float64, len(hs))
	if _, err := m.Predict(hs[0]); err != nil { // warm the pools
		t.Fatal(err)
	}
	if err := m.PredictBatchInto(hs, out); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Predict(hs[0]); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 1 {
		t.Fatalf("Predict allocates %.2f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := m.PredictBatchInto(hs, out); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 1 {
		t.Fatalf("PredictBatchInto allocates %.2f objects/op, want 0", allocs)
	}
}

// TestTrainStepZeroAlloc pins a steady-state training step (forward, BPTT,
// clip, Adam) at two fleet shapes to zero allocations once the first step
// has sized the trainer's batch workspace.
func TestTrainStepZeroAlloc(t *testing.T) {
	for _, shape := range []struct{ hidden, layers int }{{5, 1}, {16, 2}} {
		m, err := NewLSTM(Config{InputSize: 1, HiddenSize: shape.hidden, Layers: shape.layers, OutputSize: 1}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		tr, inputs, targets, batch := trainStepFixture(m, rand.New(rand.NewSource(3)))
		if _, err := tr.step(inputs, targets, batch); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := tr.step(inputs, targets, batch); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("H%d/L%d: a steady-state train step allocates %.2f objects, want 0", shape.hidden, shape.layers, allocs)
		}
	}
}

//go:build !race

package nn

import (
	"math/rand"
	"runtime"
	"testing"
)

// netOverheadBytes is the fixed heap cost of one network beyond its weight
// slab: the LSTM header (config, tensor views, empty inference pools), the
// per-layer views and the allocator's size-class rounding of the slab at the
// pinned shape.
const netOverheadBytes = 2048

// retainedPerNet builds n networks with mk and reports the heap bytes each
// keeps live after a full collection.
func retainedPerNet(t *testing.T, n int, mk func(i int) *LSTM) float64 {
	t.Helper()
	nets := make([]*LSTM, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range nets {
		nets[i] = mk(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nets)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestNetworkHoldsWeightsOnly pins a serving network's resident footprint:
// a network loaded from a snapshot, and one whose training run has
// returned, keep their weights plus a fixed overhead — no gradients, Adam
// moments, BPTT workspaces or batch buffers.
func TestNetworkHoldsWeightsOnly(t *testing.T) {
	const nets = 64
	cfg := Config{InputSize: 1, HiddenSize: 16, Layers: 2, OutputSize: 1}
	src, err := NewLSTM(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	snap := src.Snapshot()
	weightBytes := float64(8 * src.NumParams())
	limit := weightBytes + netOverheadBytes

	loaded := retainedPerNet(t, nets, func(int) *LSTM {
		m, err := FromSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	t.Logf("loaded network: %.0f bytes retained for %.0f weight bytes", loaded, weightBytes)
	if loaded > limit {
		t.Fatalf("a loaded network retains %.0f bytes, want <= %.0f (%.0f weight bytes + %d)",
			loaded, limit, weightBytes, netOverheadBytes)
	}

	rng := rand.New(rand.NewSource(2))
	inputs := randHistories(rng, 40, 12)
	targets := make([]float64, len(inputs))
	for i := range targets {
		targets[i] = rng.Float64()
	}
	tc := DefaultTrainConfig()
	tc.Epochs, tc.BatchSize = 2, 16 // a remainder batch: two cached workspaces
	trained := retainedPerNet(t, nets, func(i int) *LSTM {
		m, err := NewLSTM(cfg, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(inputs, targets, tc); err != nil {
			t.Fatal(err)
		}
		return m
	})
	t.Logf("trained network: %.0f bytes retained", trained)
	if trained > limit {
		t.Fatalf("a trained network retains %.0f bytes, want <= %.0f: training state outlived the run",
			trained, limit)
	}
}

// TestFromSnapshotRejectsOversizedCheaply pins that a snapshot declaring a
// huge network without its weights is rejected on its shapes, before
// anything is sized from the config.
func TestFromSnapshotRejectsOversizedCheaply(t *testing.T) {
	cfg := Config{InputSize: 1, HiddenSize: 1 << 20, Layers: 1, OutputSize: 1}
	for _, weights := range [][][]float64{nil, make([][]float64, 5)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := FromSnapshot(Snapshot{Config: cfg, Weights: weights})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("snapshot with %d empty tensors accepted", len(weights))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("rejecting a snapshot with %d empty tensors allocated %d bytes, want < 1 MiB", len(weights), got)
		}
	}
}

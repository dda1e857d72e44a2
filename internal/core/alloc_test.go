//go:build !race

// Allocation pin for the multi-step forecast hot path. AllocsPerRun is
// incompatible with the race detector's instrumentation, so this assertion
// is built out of -race runs.
package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"
)

// TestPredictStepsIntoZeroAlloc pins the uncached forecast at zero
// allocations in steady state: the rolling window and scaled buffers come
// from the model's scratch pool and the LSTM runs on its pooled inference
// workspace. Tolerance below 1 (not an exact 0 compare) because a stray GC
// during the measured runs can empty a sync.Pool mid-measurement.
func TestPredictStepsIntoZeroAlloc(t *testing.T) {
	m, _ := stepsTestModel(t)
	hl := m.HP.HistoryLen
	history := make([]float64, hl)
	for i := range history {
		history[i] = 100 + float64(i)
	}
	out := make([]float64, 3)
	ctx := context.Background()
	if err := m.PredictStepsInto(ctx, history, out); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.PredictStepsInto(ctx, history, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Fatalf("PredictStepsInto allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestLoadRejectsOversizedSnapshotCheaply pins that a tiny model file
// declaring a huge network (HiddenSize 2^20, no weights) is rejected on its
// shapes before any weight matrix is sized from the config.
func TestLoadRejectsOversizedSnapshotCheaply(t *testing.T) {
	data := snapshotSeed(t, "oversized-hidden")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("oversized snapshot loaded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting a %d-byte model file allocated %d bytes, want < 1 MiB", len(data), got)
	}
}

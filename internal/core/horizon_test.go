package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"loaddynamics/internal/nn"
)

// horizonShapes are perfbench's eight base architectures plus a
// three-layer network.
var horizonShapes = []Hyperparams{
	{HistoryLen: 24, CellSize: 16, Layers: 2, BatchSize: 32},
	{HistoryLen: 12, CellSize: 8, Layers: 1, BatchSize: 16},
	{HistoryLen: 6, CellSize: 12, Layers: 2, BatchSize: 64},
	{HistoryLen: 18, CellSize: 4, Layers: 1, BatchSize: 8},
	{HistoryLen: 3, CellSize: 16, Layers: 1, BatchSize: 24},
	{HistoryLen: 24, CellSize: 10, Layers: 1, BatchSize: 48},
	{HistoryLen: 9, CellSize: 14, Layers: 2, BatchSize: 12},
	{HistoryLen: 16, CellSize: 6, Layers: 2, BatchSize: 40},
	{HistoryLen: 8, CellSize: 6, Layers: 3, BatchSize: 16},
}

// TestForecastPrefixAndContinuation pins the invariant the serving cache
// relies on, bit for bit and for every k ≤ 12: the k-step forecast is the
// first k steps of the 12-step forecast on the same history, and
// forecasting 12−k steps from window ++ those k steps yields the rest.
// Both hold through PredictStepsBatch with mixed horizons too, and on a
// model whose forecasts clamp at 0.
func TestForecastPrefixAndContinuation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	series := make([]float64, 160)
	for i := range series {
		series[i] = 80 + 25*math.Sin(2*math.Pi*float64(i)/12) + 3*rng.NormFloat64()
	}
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 1
	tc.Patience = 0
	for _, hp := range horizonShapes {
		t.Run(fmt.Sprintf("h%d-c%d-l%d", hp.HistoryLen, hp.CellSize, hp.Layers), func(t *testing.T) {
			m, err := TrainSingle(Config{Seed: 7, Train: tc}, series[:120], series[120:], hp)
			if err != nil {
				t.Fatal(err)
			}
			checkPrefixAndContinuation(t, m, series)

			// Push the head's bias down and forecast from a lone spike after
			// zeros: forecasts fall below zero and are clamped, and the
			// clamped zeros are what gets fed back (on h3-c16-l1 a later
			// step rises above zero again).
			snap := m.net.Snapshot()
			snap.Weights[len(snap.Weights)-1][0]--
			net, err := nn.FromSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			clamped := &Model{HP: m.HP, net: net, scaler: m.scaler}
			spike := make([]float64, 40)
			spike[len(spike)-1] = 300
			full, err := clamped.PredictSteps(spike, 12)
			if err != nil {
				t.Fatal(err)
			}
			zeros := 0
			for _, v := range full {
				if v == 0 {
					zeros++
				}
			}
			if zeros == 0 {
				t.Fatalf("clamp model: no forecast clamped at 0: %v", full)
			}
			checkPrefixAndContinuation(t, clamped, spike)
		})
	}
}

func checkPrefixAndContinuation(t *testing.T, m *Model, history []float64) {
	t.Helper()
	const horizon = 12
	full, err := m.PredictSteps(history, horizon)
	if err != nil {
		t.Fatal(err)
	}
	window := history[len(history)-m.HP.HistoryLen:]
	var histories, want [][]float64
	var steps []int
	for k := 1; k <= horizon; k++ {
		prefix, err := m.PredictSteps(history, k)
		if err != nil {
			t.Fatal(err)
		}
		assertBits(t, fmt.Sprintf("PredictSteps(h, %d)", k), prefix, full[:k])
		histories, steps, want = append(histories, history), append(steps, k), append(want, full[:k])
		if k == horizon {
			continue
		}
		cont := append(append([]float64(nil), window...), full[:k]...)
		tail, err := m.PredictSteps(cont, horizon-k)
		if err != nil {
			t.Fatal(err)
		}
		assertBits(t, fmt.Sprintf("continuation after %d", k), tail, full[k:])
		histories, steps, want = append(histories, cont), append(steps, horizon-k), append(want, full[k:])
	}
	got, err := m.PredictStepsBatch(context.Background(), histories, steps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		assertBits(t, fmt.Sprintf("batch entry %d", i), got[i], want[i])
	}
}

func assertBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d forecasts, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s t+%d: %v, want %v", what, i+1, got[i], want[i])
		}
	}
}

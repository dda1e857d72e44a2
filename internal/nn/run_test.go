package nn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// splitOutcome is what a training run ends on: final weights, the last
// epoch's loss, the error text and the completed epoch count.
type splitOutcome struct {
	weights uint64
	loss    uint64
	err     string
	epochs  int
}

func runOutcome(m *LSTM, r *Run, loss float64, err error) splitOutcome {
	o := splitOutcome{weights: hashFloats(m.w.flat), loss: math.Float64bits(loss), epochs: r.epoch}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// trainSplit trains a fresh network twice from the same seed: once to the
// end in one AdvanceTo call (what TrainContext does), once advanced one
// epoch per call. It returns both outcomes.
func trainSplit(t *testing.T, tc TrainConfig, inputs [][]float64, targets []float64) (whole, split splitOutcome) {
	t.Helper()
	train := func(step int) splitOutcome {
		m, err := NewLSTM(Config{InputSize: 1, HiddenSize: 6, Layers: 2, OutputSize: 1}, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.NewRun(inputs, targets, tc)
		if err != nil {
			t.Fatal(err)
		}
		var loss float64
		for e := step; ; e += step {
			loss, err = r.AdvanceTo(context.Background(), e)
			if err != nil || r.Done() {
				break
			}
			if r.epoch != e {
				t.Fatalf("AdvanceTo(%d) stopped at epoch %d on a live run", e, r.epoch)
			}
		}
		if r.tr != nil {
			t.Fatal("an ended run still holds its trainer")
		}
		// An ended run stays where it ended.
		again, againErr := r.AdvanceTo(context.Background(), tc.Epochs+5)
		if (againErr == nil) != (err == nil) || (err == nil && again != loss) {
			t.Fatalf("advancing an ended run returned (%v, %v), it ended on (%v, %v)", again, againErr, loss, err)
		}
		return runOutcome(m, r, loss, err)
	}
	return train(tc.Epochs), train(1)
}

// TestRunSplitMatchesUninterrupted pins the resumable run: advancing one
// epoch per call lands on the same bits as TrainContext, including a run
// that early stopping ends before Epochs and one that diverges.
func TestRunSplitMatchesUninterrupted(t *testing.T) {
	inputs, targets := goldenData(rand.New(rand.NewSource(9)))
	base := DefaultTrainConfig()
	base.BatchSize = 8
	base.Seed = 5

	full := base
	full.Epochs = 6
	full.Patience = 0

	patience := base
	patience.Epochs = 20
	patience.Patience = 2
	patience.MinDelta = 1e9 // only the first epoch counts as an improvement

	diverge := base
	diverge.Epochs = 20
	diverge.Patience = 0
	// Two targets whose squares sum past MaxFloat64: the batch loss turns
	// +Inf in the first epoch that shuffles both into one mini-batch —
	// epoch 4 of this seed, so the split run crosses three boundaries first.
	huge := append([]float64(nil), targets...)
	huge[0], huge[1] = 1e154, 1e154

	for _, tc := range []struct {
		name       string
		cfg        TrainConfig
		targets    []float64
		wantEpochs int
		wantErr    error
	}{
		{"full", full, targets, 6, nil},
		{"patience", patience, targets, 3, nil},
		{"divergence", diverge, huge, 4, ErrDiverged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole, split := trainSplit(t, tc.cfg, inputs, tc.targets)
			if whole != split {
				t.Fatalf("split run %+v, uninterrupted %+v", split, whole)
			}
			if whole.epochs != tc.wantEpochs {
				t.Fatalf("run ended after %d epochs, want %d", whole.epochs, tc.wantEpochs)
			}
			m, err := NewLSTM(Config{InputSize: 1, HiddenSize: 6, Layers: 2, OutputSize: 1}, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			loss, err := m.TrainContext(context.Background(), inputs, tc.targets, tc.cfg)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("TrainContext err = %v, want %v", err, tc.wantErr)
			}
			if got := hashFloats(m.w.flat); got != whole.weights || math.Float64bits(loss) != whole.loss {
				t.Fatalf("TrainContext ends on weights %#x loss %v, the one-call run on %#x %v",
					got, loss, whole.weights, math.Float64frombits(whole.loss))
			}
		})
	}
}

// TestRunStopReleasesTrainer: a stopped run (a pruned candidate) keeps its
// weights and drops its training state; advancing it is a no-op.
func TestRunStopReleasesTrainer(t *testing.T) {
	inputs, targets := goldenData(rand.New(rand.NewSource(9)))
	m, err := NewLSTM(Config{InputSize: 1, HiddenSize: 4, Layers: 1, OutputSize: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tc := DefaultTrainConfig()
	tc.BatchSize = 8
	r, err := m.NewRun(inputs, targets, tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AdvanceTo(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	w := hashFloats(m.w.flat)
	r.Stop()
	if !r.Done() || r.tr != nil || r.epoch != 2 {
		t.Fatalf("stopped run: done=%v trainer=%v epochs=%d", r.Done(), r.tr != nil, r.epoch)
	}
	if _, err := r.AdvanceTo(context.Background(), 10); err != nil || r.epoch != 2 || hashFloats(m.w.flat) != w {
		t.Fatalf("advancing a stopped run trained it: err=%v epochs=%d", err, r.epoch)
	}
}

// TestRunCancelIsSticky: cancellation ends the run, and resuming it with a
// live context returns the same error rather than training on.
func TestRunCancelIsSticky(t *testing.T) {
	inputs, targets := goldenData(rand.New(rand.NewSource(9)))
	m, err := NewLSTM(Config{InputSize: 1, HiddenSize: 4, Layers: 1, OutputSize: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tc := DefaultTrainConfig()
	tc.BatchSize = 8
	r, err := m.NewRun(inputs, targets, tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AdvanceTo(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.AdvanceTo(ctx, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled advance err = %v", err)
	}
	if _, err := r.AdvanceTo(context.Background(), 3); !errors.Is(err, context.Canceled) || r.epoch != 1 {
		t.Fatalf("resumed cancelled run: err=%v epochs=%d", err, r.epoch)
	}
}

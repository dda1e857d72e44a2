package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"loaddynamics/internal/obs"
)

// Package metrics (obs.Default): one observation per training epoch — the
// per-batch hot loop stays untouched, so instrumentation overhead is a few
// atomics per epoch against milliseconds of matrix math.
var (
	epochCount       = obs.Default.Counter("nn.epochs")
	divergedCount    = obs.Default.Counter("nn.diverged")
	epochSecondsHist = obs.Default.Histogram("nn.epoch_seconds")
	epochLossHist    = obs.Default.Histogram("nn.epoch_loss")
)

// ErrDiverged marks a training run aborted because the loss or the weights
// became non-finite (NaN/Inf). Callers distinguish it from infrastructure
// failures with errors.Is: a diverged candidate is a property of the
// hyperparameter point, not of the build, so searches quarantine it and
// continue instead of aborting.
var ErrDiverged = errors.New("training diverged (non-finite loss or weights)")

// TrainConfig controls LSTM training. BatchSize is the fourth paper
// hyperparameter; it does not change the model structure but affects how
// well training converges (Section III-A).
type TrainConfig struct {
	Epochs       int     // maximum passes over the training set
	BatchSize    int     // mini-batch size
	LearningRate float64 // Adam step size
	ClipNorm     float64 // global gradient-norm clip (0 disables)
	Seed         int64   // shuffling seed
	Patience     int     // early-stop after this many epochs without improvement (0 disables)
	MinDelta     float64 // improvement threshold for early stopping
	Loss         Loss    // training objective (zero value = MSE, the paper's choice)
}

// DefaultTrainConfig returns the training settings used throughout the
// reproduction: the paper trains with MSE + Adam; epochs/patience are set
// so small models converge in seconds.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:       60,
		BatchSize:    32,
		LearningRate: 5e-3,
		ClipNorm:     5,
		Patience:     8,
		MinDelta:     1e-6,
	}
}

// Train fits the network to (inputs, targets) pairs where each input is a
// scaled univariate history of identical length. It returns the final
// epoch's mean training loss.
func (m *LSTM) Train(inputs [][]float64, targets []float64, tc TrainConfig) (float64, error) {
	return m.TrainContext(context.Background(), inputs, targets, tc)
}

// TrainContext is Train honoring cancellation and deadlines: ctx is checked
// between mini-batches, so a cancelled build abandons a candidate within one
// batch step. It also guards against divergence — a non-finite batch loss or
// non-finite weights after an epoch abort with an error wrapping ErrDiverged,
// leaving the caller free to quarantine the candidate.
func (m *LSTM) TrainContext(ctx context.Context, inputs [][]float64, targets []float64, tc TrainConfig) (float64, error) {
	if len(inputs) == 0 {
		return 0, fmt.Errorf("nn: Train on empty dataset")
	}
	if len(inputs) != len(targets) {
		return 0, fmt.Errorf("nn: %d inputs but %d targets", len(inputs), len(targets))
	}
	if tc.Epochs <= 0 {
		return 0, fmt.Errorf("nn: Epochs must be positive, got %d", tc.Epochs)
	}
	if tc.BatchSize <= 0 {
		return 0, fmt.Errorf("nn: BatchSize must be positive, got %d", tc.BatchSize)
	}
	if tc.LearningRate <= 0 {
		return 0, fmt.Errorf("nn: LearningRate must be positive, got %v", tc.LearningRate)
	}
	if !tc.Loss.valid() {
		return 0, fmt.Errorf("nn: unknown loss %d", tc.Loss)
	}

	rng := rand.New(rand.NewSource(tc.Seed))
	tr := newTrainer(m, tc)
	idx := make([]int, len(inputs))
	for i := range idx {
		idx[i] = i
	}

	best := math.Inf(1)
	bad := 0
	var epochLoss float64
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		epochStart := time.Now()
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss = 0
		batches := 0
		for lo := 0; lo < len(idx); lo += tc.BatchSize {
			hi := lo + tc.BatchSize
			if hi > len(idx) {
				hi = len(idx)
			}
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("nn: training interrupted at epoch %d: %w", epoch, err)
			}
			batch := idx[lo:hi]
			loss, err := tr.step(inputs, targets, batch)
			if err != nil {
				return 0, err
			}
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				divergedCount.Inc()
				return 0, fmt.Errorf("nn: epoch %d: batch loss %v: %w", epoch, loss, ErrDiverged)
			}
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		if !finite(m.w.flat) {
			divergedCount.Inc()
			return 0, fmt.Errorf("nn: epoch %d: non-finite weights: %w", epoch, ErrDiverged)
		}
		epochCount.Inc()
		epochSecondsHist.Observe(time.Since(epochStart).Seconds())
		epochLossHist.Observe(epochLoss)
		if tc.Patience > 0 {
			if epochLoss < best-tc.MinDelta {
				best = epochLoss
				bad = 0
			} else {
				bad++
				if bad >= tc.Patience {
					break
				}
			}
		}
	}
	return epochLoss, nil
}

// finite reports whether every value is finite.
func finite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// trainer is the state of one training run: the gradients, the Adam
// moments and the per-batch-size BPTT workspaces. It lives for one
// TrainContext call, so the network it trains keeps only its weights once
// the call returns. Moments and gradients start at zero on every run.
type trainer struct {
	net     *LSTM
	grad    tensors // dL/dW, laid out like net.w
	opt     *adam
	clip    float64
	loss    Loss
	wss     map[int]*workspace // keyed by batch size
	histBuf [][]float64
}

func newTrainer(m *LSTM, tc TrainConfig) *trainer {
	return &trainer{
		net:  m,
		grad: newTensors(m.Cfg.shapes()),
		opt:  newAdam(tc.LearningRate, len(m.w.flat)),
		clip: tc.ClipNorm,
		loss: tc.Loss,
		wss:  make(map[int]*workspace, 2),
	}
}

// step runs forward + backward + optimizer step on one mini-batch and
// returns its loss. All intermediates live in the run's per-batch-size
// workspace, so a steady-state training step allocates nothing.
func (tr *trainer) step(inputs [][]float64, targets []float64, batch []int) (float64, error) {
	m := tr.net
	histories := tr.histBuf[:0]
	for _, b := range batch {
		histories = append(histories, inputs[b])
	}
	tr.histBuf = histories
	T, err := m.validateBatch(histories)
	if err != nil {
		return 0, err
	}
	ws := tr.workspace(len(batch), T)
	packInputsInto(histories, ws.xs)
	pred, states := m.forwardWS(ws.xs, ws)

	// Loss and its gradient, averaged over the batch.
	bsz := float64(len(batch))
	dPred := ws.dPred
	dPred.Zero()
	loss := 0.0
	for i, b := range batch {
		l, g := tr.loss.lossAndGrad(pred.At(i, 0), targets[b])
		loss += l
		dPred.Set(i, 0, g/bsz)
	}
	loss /= bsz

	clear(tr.grad.flat)
	m.backwardWS(dPred, states, ws, &tr.grad)
	if tr.clip > 0 {
		clipGradNorm(tr.grad.flat, tr.clip)
	}
	tr.opt.update(m.w.flat, tr.grad.flat)
	return loss, nil
}

// Loss computes the MSE of the network on a dataset without updating
// weights.
func (m *LSTM) Loss(inputs [][]float64, targets []float64) (float64, error) {
	if len(inputs) != len(targets) || len(inputs) == 0 {
		return 0, fmt.Errorf("nn: Loss needs equal non-zero inputs/targets, got %d/%d", len(inputs), len(targets))
	}
	preds, err := m.PredictBatch(inputs)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for i, p := range preds {
		d := p - targets[i]
		s += d * d
	}
	return s / float64(len(preds)), nil
}

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
// leaving the caller free to quarantine the candidate. It is a Run advanced
// to its end in one call.
func (m *LSTM) TrainContext(ctx context.Context, inputs [][]float64, targets []float64, tc TrainConfig) (float64, error) {
	r, err := m.NewRun(inputs, targets, tc)
	if err != nil {
		return 0, err
	}
	return r.AdvanceTo(ctx, tc.Epochs)
}

// Run is one resumable training run. The shuffling RNG and order, the Adam
// moments, the early-stopping state and the epoch count persist between
// AdvanceTo calls, so a run advanced in pieces ends on the same weights,
// bit for bit, as one advanced to its end in a single call. The run-scoped
// trainer (gradients, moments, BPTT workspaces) is dropped when the run
// ends or is stopped; the network then holds only its weights.
type Run struct {
	net     *LSTM
	inputs  [][]float64
	targets []float64
	tc      TrainConfig
	rng     *rand.Rand
	idx     []int
	tr      *trainer // nil once the run has ended

	best  float64 // lowest epoch loss so far (patience)
	bad   int     // epochs since best improved
	epoch int     // completed epochs
	loss  float64 // last completed epoch's mean loss
	done  bool
	err   error // sticky: the error that ended the run
}

// NewRun validates the training set and configuration and returns a run
// positioned before its first epoch.
func (m *LSTM) NewRun(inputs [][]float64, targets []float64, tc TrainConfig) (*Run, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("nn: Train on empty dataset")
	}
	if len(inputs) != len(targets) {
		return nil, fmt.Errorf("nn: %d inputs but %d targets", len(inputs), len(targets))
	}
	if tc.Epochs <= 0 {
		return nil, fmt.Errorf("nn: Epochs must be positive, got %d", tc.Epochs)
	}
	if tc.BatchSize <= 0 {
		return nil, fmt.Errorf("nn: BatchSize must be positive, got %d", tc.BatchSize)
	}
	if tc.LearningRate <= 0 {
		return nil, fmt.Errorf("nn: LearningRate must be positive, got %v", tc.LearningRate)
	}
	if !tc.Loss.valid() {
		return nil, fmt.Errorf("nn: unknown loss %d", tc.Loss)
	}
	idx := make([]int, len(inputs))
	for i := range idx {
		idx[i] = i
	}
	return &Run{
		net: m, inputs: inputs, targets: targets, tc: tc,
		rng:  rand.New(rand.NewSource(tc.Seed)),
		idx:  idx,
		tr:   newTrainer(m, tc),
		best: math.Inf(1),
	}, nil
}

// Done reports whether the run has ended: early stopping fired, Epochs
// were completed, it failed, or it was stopped.
func (r *Run) Done() bool { return r.done }

// Stop ends a live run where it is and releases its trainer. Stopping an
// ended run changes nothing.
func (r *Run) Stop() {
	if !r.done {
		r.end(nil)
	}
}

// end marks the run finished with err and drops everything only training
// needs.
func (r *Run) end(err error) {
	r.done, r.err = true, err
	r.tr, r.idx, r.inputs, r.targets = nil, nil, nil, nil
}

// AdvanceTo trains until the run has completed epoch epochs (capped at
// TrainConfig.Epochs) or has ended, and returns the last completed epoch's
// mean loss. An error — cancellation, divergence — ends the run, and later
// calls return it again.
func (r *Run) AdvanceTo(ctx context.Context, epoch int) (float64, error) {
	epoch = min(epoch, r.tc.Epochs)
	for !r.done && r.epoch < epoch {
		if err := r.runEpoch(ctx); err != nil {
			r.end(err)
		}
	}
	if r.err != nil {
		return 0, r.err
	}
	return r.loss, nil
}

// runEpoch trains one epoch and applies the stopping rules.
func (r *Run) runEpoch(ctx context.Context) error {
	epochStart := time.Now()
	idx, bsz := r.idx, r.tc.BatchSize
	r.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	epochLoss := 0.0
	batches := 0
	for lo := 0; lo < len(idx); lo += bsz {
		hi := min(lo+bsz, len(idx))
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("nn: training interrupted at epoch %d: %w", r.epoch, err)
		}
		loss, err := r.tr.step(r.inputs, r.targets, idx[lo:hi])
		if err != nil {
			return err
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			divergedCount.Inc()
			return fmt.Errorf("nn: epoch %d: batch loss %v: %w", r.epoch, loss, ErrDiverged)
		}
		epochLoss += loss
		batches++
	}
	epochLoss /= float64(batches)
	if !finite(r.net.w.flat) {
		divergedCount.Inc()
		return fmt.Errorf("nn: epoch %d: non-finite weights: %w", r.epoch, ErrDiverged)
	}
	epochCount.Inc()
	epochSecondsHist.Observe(time.Since(epochStart).Seconds())
	epochLossHist.Observe(epochLoss)
	r.epoch++
	r.loss = epochLoss
	if r.tc.Patience > 0 {
		if epochLoss < r.best-r.tc.MinDelta {
			r.best = epochLoss
			r.bad = 0
		} else if r.bad++; r.bad >= r.tc.Patience {
			r.end(nil)
			return nil
		}
	}
	if r.epoch >= r.tc.Epochs {
		r.end(nil)
	}
	return nil
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
// moments and the per-batch-size BPTT workspaces. It lives as long as its
// Run, so the network it trains keeps only its weights once the run ends.
// Moments and gradients start at zero on every run.
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
		s += float64(d * d)
	}
	return s / float64(len(preds)), nil
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"loaddynamics/internal/nn"
	"loaddynamics/internal/timeseries"
)

// Model is a trained LoadDynamics predictor: the LSTM network A = (M, T)
// of Fig. 3 together with the input scaler and the hyperparameters it was
// built with. It satisfies predictors.Predictor so it can be driven by the
// same walk-forward harness as the baselines (Fit is a no-op — the
// framework owns training).
type Model struct {
	HP       Hyperparams
	ValError float64 // cross-validation MAPE achieved during the search

	net    *nn.LSTM
	scaler timeseries.Scaler

	// scratch pools stepScratch buffers so PredictStepsInto — the serving
	// hot path — is allocation-free in steady state.
	scratch sync.Pool
}

// stepScratch is the fixed-size working set of one iterated forecast: the
// rolling raw window and its scaled image, both exactly HistoryLen long.
type stepScratch struct {
	window, scaled []float64
}

// getScratch checks a scratch out of the pool, allocating on first use (or
// if a stale differently-sized buffer surfaces, which cannot happen for a
// single model but keeps the invariant local).
func (m *Model) getScratch() *stepScratch {
	if v := m.scratch.Get(); v != nil {
		if sc := v.(*stepScratch); len(sc.window) == m.HP.HistoryLen {
			return sc
		}
	}
	return &stepScratch{
		window: make([]float64, m.HP.HistoryLen),
		scaled: make([]float64, m.HP.HistoryLen),
	}
}

// Name implements predictors.Predictor.
func (m *Model) Name() string { return "loaddynamics" }

// Fit implements predictors.Predictor as a no-op: LoadDynamics models are
// trained once by the framework's optimization workflow.
func (m *Model) Fit([]float64) error { return nil }

// Predict forecasts the next JAR from the raw (unscaled) history; the last
// HistoryLen values are used. Forecasts are clamped at zero — a negative
// job arrival rate is meaningless.
func (m *Model) Predict(history []float64) (float64, error) {
	if m.net == nil {
		return 0, fmt.Errorf("core: model not trained")
	}
	if len(history) < m.HP.HistoryLen {
		return 0, fmt.Errorf("core: need %d recent values, got %d", m.HP.HistoryLen, len(history))
	}
	recent := history[len(history)-m.HP.HistoryLen:]
	scaled := timeseries.TransformAll(m.scaler, recent)
	p, err := m.net.Predict(scaled)
	if err != nil {
		return 0, err
	}
	v := m.scaler.Inverse(p)
	if v < 0 {
		v = 0
	}
	return v, nil
}

// PredictSteps produces an iterated multi-step forecast: the next `steps`
// JARs, each forecast fed back as history for the following one (the
// "next time interval(s)" use-case of Section II). Uncertainty compounds
// with the horizon; one-step forecasts (PredictHorizon) should be
// preferred whenever actuals arrive between predictions.
func (m *Model) PredictSteps(history []float64, steps int) ([]float64, error) {
	return m.PredictStepsContext(context.Background(), history, steps)
}

// PredictStepsContext is PredictSteps honoring cancellation and deadlines:
// ctx is checked before each step of the iterated forecast, so a serving
// layer can bound the latency of large-horizon requests.
func (m *Model) PredictStepsContext(ctx context.Context, history []float64, steps int) ([]float64, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("core: steps must be positive, got %d", steps)
	}
	out := make([]float64, steps)
	if err := m.PredictStepsInto(ctx, history, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictStepsInto is the allocation-free iterated forecast: len(out) steps
// are written into out, each fed back as history for the next. The rolling
// window and its scaled image come from a per-model pool, and the network
// runs on its pooled streaming workspace, so steady-state forecasts allocate
// nothing. Results are bit-identical to PredictStepsContext (which now wraps
// this), because the rolling window holds exactly the last HistoryLen values
// the old append-and-trim path would have passed to Predict.
func (m *Model) PredictStepsInto(ctx context.Context, history []float64, out []float64) error {
	if len(out) == 0 {
		return fmt.Errorf("core: steps must be positive, got %d", len(out))
	}
	if m.net == nil {
		return fmt.Errorf("core: multi-step forecast at t+1: core: model not trained")
	}
	hl := m.HP.HistoryLen
	if len(history) < hl {
		return fmt.Errorf("core: multi-step forecast at t+1: core: need %d recent values, got %d", hl, len(history))
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	copy(sc.window, history[len(history)-hl:])
	for i := range out {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: multi-step forecast interrupted at t+%d: %w", i+1, err)
		}
		for j, v := range sc.window {
			sc.scaled[j] = m.scaler.Transform(v)
		}
		p, err := m.net.Predict(sc.scaled)
		if err != nil {
			return fmt.Errorf("core: multi-step forecast at t+%d: %w", i+1, err)
		}
		v := m.scaler.Inverse(p)
		if v < 0 {
			v = 0
		}
		out[i] = v
		copy(sc.window, sc.window[1:])
		sc.window[hl-1] = v
	}
	return nil
}

// PredictStepsBatch runs iterated forecasts for many histories against the
// same model, fusing each forecast step across the batch into one
// PredictBatchInto call — the fan-in behind POST /v1/forecast:batch.
// steps[i] is entry i's horizon; entries drop out of the fused batch as
// their horizons are exhausted. Every row is bit-identical to predicting
// that history alone with PredictStepsContext, because each row of the
// batched network pass depends only on its own inputs.
func (m *Model) PredictStepsBatch(ctx context.Context, histories [][]float64, steps []int) ([][]float64, error) {
	if len(histories) != len(steps) {
		return nil, fmt.Errorf("core: batch mismatch: %d histories, %d step counts", len(histories), len(steps))
	}
	if len(histories) == 0 {
		return nil, fmt.Errorf("core: empty forecast batch")
	}
	if m.net == nil {
		return nil, fmt.Errorf("core: model not trained")
	}
	hl := m.HP.HistoryLen
	maxSteps := 0
	for i, h := range histories {
		if steps[i] <= 0 {
			return nil, fmt.Errorf("core: steps must be positive, got %d", steps[i])
		}
		if len(h) < hl {
			return nil, fmt.Errorf("core: need %d recent values, got %d", hl, len(h))
		}
		if steps[i] > maxSteps {
			maxSteps = steps[i]
		}
	}

	n := len(histories)
	out := make([][]float64, n)
	windows := make([][]float64, n)
	backing := make([]float64, 2*n*hl)
	for i, h := range histories {
		out[i] = make([]float64, steps[i])
		w := backing[i*hl : (i+1)*hl : (i+1)*hl]
		copy(w, h[len(h)-hl:])
		windows[i] = w
	}
	scaledBacking := backing[n*hl:]
	scaled := make([][]float64, 0, n)
	preds := make([]float64, n)
	active := make([]int, 0, n)
	for s := 0; s < maxSteps; s++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: multi-step forecast interrupted at t+%d: %w", s+1, err)
		}
		scaled, active = scaled[:0], active[:0]
		for i := range histories {
			if steps[i] <= s {
				continue
			}
			buf := scaledBacking[len(active)*hl : (len(active)+1)*hl : (len(active)+1)*hl]
			for j, v := range windows[i] {
				buf[j] = m.scaler.Transform(v)
			}
			scaled = append(scaled, buf)
			active = append(active, i)
		}
		if err := m.net.PredictBatchInto(scaled, preds[:len(active)]); err != nil {
			return nil, fmt.Errorf("core: multi-step forecast at t+%d: %w", s+1, err)
		}
		for k, i := range active {
			v := m.scaler.Inverse(preds[k])
			if v < 0 {
				v = 0
			}
			out[i][s] = v
			copy(windows[i], windows[i][1:])
			windows[i][hl-1] = v
		}
	}
	return out, nil
}

// PredictHorizon produces one-step forecasts for every element of horizon
// using ctx (the earlier part of the workload) as the leading history. This
// is the paper's test procedure: each test JAR is predicted from the actual
// preceding JARs.
func (m *Model) PredictHorizon(ctx, horizon []float64) ([]float64, error) {
	if m.net == nil {
		return nil, fmt.Errorf("core: model not trained")
	}
	if len(horizon) == 0 {
		return nil, fmt.Errorf("core: empty prediction horizon")
	}
	sctx := timeseries.TransformAll(m.scaler, ctx)
	shor := timeseries.TransformAll(m.scaler, horizon)
	wins, err := timeseries.WindowsWithContext(sctx, shor, m.HP.HistoryLen)
	if err != nil {
		return nil, fmt.Errorf("core: building prediction windows: %w", err)
	}
	if len(wins) != len(horizon) {
		return nil, fmt.Errorf("core: context too short: %d windows for %d horizon values (need %d context values)",
			len(wins), len(horizon), m.HP.HistoryLen)
	}
	inputs := make([][]float64, len(wins))
	for i, w := range wins {
		inputs[i] = w.Input
	}
	preds, err := m.net.PredictBatch(inputs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(preds))
	for i, p := range preds {
		v := m.scaler.Inverse(p)
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out, nil
}

// Evaluate returns the MAPE of one-step forecasts over horizon given ctx.
func (m *Model) Evaluate(ctx, horizon []float64) (float64, error) {
	preds, err := m.PredictHorizon(ctx, horizon)
	if err != nil {
		return 0, err
	}
	return timeseries.MAPE(preds, horizon)
}

// NumParams exposes the size of the underlying network.
func (m *Model) NumParams() int {
	if m.net == nil {
		return 0
	}
	return m.net.NumParams()
}

// trainModel trains one LSTM with the given hyperparameters on the raw
// training JARs and reports its MAPE on the raw validation JARs — one
// execution of steps 1–2 of the Fig. 6 workflow, run to its end.
func trainModel(ctx context.Context, train, validate []float64, hp Hyperparams, tc nn.TrainConfig, scalerName string, maxWindows int, seed int64, timeout time.Duration) (*Model, error) {
	job, err := newTrainJob(train, validate, hp, tc, scalerName, maxWindows, seed, timeout)
	if err != nil {
		return nil, err
	}
	if err := job.advance(ctx, tc.Epochs); err != nil {
		return nil, err
	}
	return job.finish()
}

// trainJob is one candidate's training in progress: steps 1–2 of the Fig. 6
// workflow split so the search can pause the candidate at its rung and
// resume the same run. maxWindows > 0 caps the supervised samples to the
// most recent windows. Training honors the caller's ctx and, when timeout
// > 0, a per-candidate budget charged only while the candidate trains.
type trainJob struct {
	model           *Model
	run             *nn.Run
	train, validate []float64
	timeout, spent  time.Duration
}

func newTrainJob(train, validate []float64, hp Hyperparams, tc nn.TrainConfig, scalerName string, maxWindows int, seed int64, timeout time.Duration) (*trainJob, error) {
	if err := hp.Validate(); err != nil {
		return nil, err
	}
	if len(train) <= hp.HistoryLen+1 {
		return nil, fmt.Errorf("core: history length %d too large for %d training values", hp.HistoryLen, len(train))
	}
	if len(validate) == 0 {
		return nil, fmt.Errorf("core: empty validation set")
	}
	scaler, err := timeseries.NewScaler(scalerName)
	if err != nil {
		return nil, err
	}
	scaler.Fit(train)
	strain := timeseries.TransformAll(scaler, train)

	wins, err := timeseries.Windows(strain, hp.HistoryLen)
	if err != nil {
		return nil, fmt.Errorf("core: building training windows: %w", err)
	}
	if maxWindows > 0 && len(wins) > maxWindows {
		wins = wins[len(wins)-maxWindows:]
	}
	inputs := make([][]float64, len(wins))
	targets := make([]float64, len(wins))
	for i, w := range wins {
		inputs[i] = w.Input
		targets[i] = w.Target
	}

	net, err := nn.NewLSTM(nn.Config{
		InputSize:  1,
		HiddenSize: hp.CellSize,
		Layers:     hp.Layers,
		OutputSize: 1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	tc.BatchSize = hp.BatchSize
	tc.Seed = seed
	run, err := net.NewRun(inputs, targets, tc)
	if err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}
	return &trainJob{
		model: &Model{HP: hp, net: net, scaler: scaler},
		run:   run, train: train, validate: validate, timeout: timeout,
	}, nil
}

// advance trains until the run has completed epoch epochs or has ended,
// adding the time it took to spent.
func (j *trainJob) advance(ctx context.Context, epoch int) error {
	start := time.Now()
	defer func() { j.spent += time.Since(start) }()
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout-j.spent)
		defer cancel()
	}
	if _, err := j.run.AdvanceTo(ctx, epoch); err != nil {
		return fmt.Errorf("core: training: %w", err)
	}
	return nil
}

// valError is the MAPE of the current weights on the validation JARs.
func (j *trainJob) valError() (float64, error) {
	v, err := j.model.Evaluate(j.train, j.validate)
	if err != nil {
		return 0, fmt.Errorf("core: validation: %w", err)
	}
	return v, nil
}

// finish ends the run and returns the model with its validation error.
func (j *trainJob) finish() (*Model, error) {
	j.run.Stop()
	v, err := j.valError()
	if err != nil {
		return nil, err
	}
	j.model.ValError = v
	return j.model, nil
}

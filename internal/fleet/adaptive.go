package fleet

import (
	"context"

	"loaddynamics/internal/core"
	"loaddynamics/internal/obs"
)

// adaptiveID is the one workload an Adaptive fleet holds.
const adaptiveID = "adaptive"

// Adaptive is the paper's Section V online adaptive model as a
// predictors.Predictor on the fleet's own loop: a one-workload,
// memory-only fleet whose evaluator, drift rule and rebuildOne are the
// code the server runs, with queued rebuilds run on the caller's goroutine.
//
// Call Predict with the full known history, then Observe with the actual.
// Walk-forward callers (predictors.WalkForward, autoscale.Simulate) may
// skip Observe: a Predict whose history grew by exactly one value since the
// previous Predict observes that value first.
type Adaptive struct {
	f       *Fleet
	pending bool // a forecast awaits its actual
	seen    int  // history length at the last Predict
}

// NewAdaptive wraps model in a one-workload fleet over opts, with Dir and
// WAL.Dir cleared and a private metrics registry, and seeds its rebuild
// history with history (oldest first).
func NewAdaptive(opts Options, model *core.Model, history []float64) (*Adaptive, error) {
	opts.Dir, opts.WAL.Dir = "", ""
	opts.Metrics = obs.NewRegistry()
	f, err := Open(opts)
	if err != nil {
		return nil, err
	}
	if err := f.Add(adaptiveID, model); err != nil {
		return nil, err
	}
	if len(history) > 0 {
		// No forecast is pending: this extends the history, scoring nothing.
		if _, err := f.Observe(adaptiveID, history); err != nil {
			return nil, err
		}
	}
	return &Adaptive{f: f}, nil
}

// Name implements predictors.Predictor.
func (a *Adaptive) Name() string { return "loaddynamics-adaptive" }

// Fit implements predictors.Predictor as a no-op: observations drive rebuilds.
func (a *Adaptive) Fit([]float64) error { return nil }

// Predict forecasts the next value with the serving model and records the
// forecast for scoring.
func (a *Adaptive) Predict(history []float64) (float64, error) {
	if a.pending && len(history) == a.seen+1 {
		if err := a.Observe(history[len(history)-1]); err != nil {
			return 0, err
		}
	}
	m, err := a.f.Model(adaptiveID)
	if err != nil {
		return 0, err
	}
	v, err := m.Predict(history)
	if err != nil {
		return 0, err
	}
	a.f.RecordForecast(adaptiveID, []float64{v})
	a.pending, a.seen = true, len(history)
	return v, nil
}

// Observe scores the pending forecast against actual and runs any rebuild
// the drift rule queued. Without a pending forecast it does nothing.
func (a *Adaptive) Observe(actual float64) error {
	if !a.pending {
		return nil
	}
	a.pending = false
	if _, err := a.f.Observe(adaptiveID, []float64{actual}); err != nil {
		return err
	}
	a.f.RunQueuedRebuilds(context.Background())
	return nil
}

// Rebuilds reports how many rebuilds have run, promoted or not.
func (a *Adaptive) Rebuilds() int64 {
	st, _ := a.f.Status(adaptiveID)
	return st.Rebuilds
}

// Model returns the serving model.
func (a *Adaptive) Model() *core.Model {
	m, _ := a.f.Model(adaptiveID)
	return m
}

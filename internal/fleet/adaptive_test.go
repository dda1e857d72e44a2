package fleet

import (
	"context"
	"math"
	"testing"

	"loaddynamics/internal/core"
	"loaddynamics/internal/predictors"
)

var _ predictors.Predictor = (*Adaptive)(nil)

func newTestAdaptive(t *testing.T, m *core.Model, history []float64) *Adaptive {
	t.Helper()
	a, err := NewAdaptive(testOptions(t, ""), m, history)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAdaptiveStableWorkloadNoRebuild: on a workload without drift the
// adapter serves the wrapped model unchanged — walk-forward predictions
// are bit-identical to the model's own — and no rebuild runs.
func TestAdaptiveStableWorkloadNoRebuild(t *testing.T) {
	series := tinySeries(1, 200)
	m := tinyModel(t, 1)
	a := newTestAdaptive(t, m, series[:80])
	a.f.buildFn = func(context.Context, core.Config, []float64, []float64) (*core.Result, error) {
		t.Error("rebuild ran on a stable workload")
		return nil, context.Canceled
	}
	got, err := predictors.WalkForward(a, series[:80], series[80:], 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := predictors.WalkForward(m, series[:80], series[80:], 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("prediction %d = %v, want the wrapped model's %v", i, got[i], want[i])
		}
	}
	if n := a.Rebuilds(); n != 0 {
		t.Fatalf("rebuilds = %d, want 0", n)
	}
	ws, _ := a.f.Status(adaptiveID)
	if ws.Drift || ws.Samples == 0 {
		t.Fatalf("status %+v: want scored samples and no drift", ws)
	}
	if a.Model() != m {
		t.Fatal("serving model changed without a rebuild")
	}
}

// TestAdaptiveDetectsRegimeChangeAndRecovers: after a level shift the
// evaluator flags drift, the queued rebuild runs inside the Predict call
// that observed the drifting value (no background worker is started), the
// promoted model raises the version, nothing is left queued, and the
// forecast error recovers on the new regime.
func TestAdaptiveDetectsRegimeChangeAndRecovers(t *testing.T) {
	const change = 80
	series := tinySeries(1, 160)
	for i := change; i < len(series); i++ {
		series[i] *= 10
	}
	shifted := tinySeries(2, 80)
	for i := range shifted {
		shifted[i] *= 10
	}
	candidate := trainOn(t, shifted, 2, 4) // a model of the new regime
	a := newTestAdaptive(t, tinyModel(t, 1), series[:change])
	builds := 0
	a.f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		builds++
		return stubResult(candidate), nil
	}

	pctErr := func(i int, pred float64) float64 { return 100 * math.Abs(pred-series[i]) / series[i] }
	var before, after []float64
	promotedAt := -1
	for i := change; i < len(series); i++ {
		_, v0, _ := a.f.ModelWithVersion(adaptiveID)
		buildsBefore := builds
		pred, err := a.Predict(series[:i])
		if err != nil {
			t.Fatal(err)
		}
		_, v1, _ := a.f.ModelWithVersion(adaptiveID)
		if promotedAt < 0 && v1 > v0 {
			promotedAt = i
			if builds != buildsBefore+1 {
				t.Fatalf("version rose at %d with %d builds inside Predict, want 1", i, builds-buildsBefore)
			}
			if n := a.f.RunQueuedRebuilds(context.Background()); n != 0 {
				t.Fatalf("RunQueuedRebuilds after the in-Predict rebuild ran %d, want 0", n)
			}
			if a.Model() != candidate {
				t.Fatal("promoted model is not the rebuilt candidate")
			}
		}
		if promotedAt < 0 {
			before = append(before, pctErr(i, pred))
		} else if i >= promotedAt+4 { // the window holds only new-regime values
			after = append(after, pctErr(i, pred))
		}
	}
	if promotedAt < 0 {
		t.Fatalf("no promotion over %d shifted intervals (rebuilds %d)", len(series)-change, a.Rebuilds())
	}
	if a.Rebuilds() < 1 {
		t.Fatal("Rebuilds() = 0 after a promotion")
	}
	mb, ma := meanOf(before), meanOf(after)
	t.Logf("promoted at %d: MAPE %.1f%% before, %.1f%% after", promotedAt, mb, ma)
	if !(ma < mb/2) {
		t.Fatalf("no recovery: MAPE %.1f%% before the promotion, %.1f%% after", mb, ma)
	}
}

// TestAdaptiveObserveWithoutPredictIsNoop: an actual with no pending
// forecast is neither scored nor added to the rebuild history.
func TestAdaptiveObserveWithoutPredictIsNoop(t *testing.T) {
	history := tinySeries(1, 80)
	a := newTestAdaptive(t, tinyModel(t, 1), history)
	if err := a.Observe(1234); err != nil {
		t.Fatal(err)
	}
	e := a.f.get(adaptiveID)
	if n := e.eval.history.samples(); n != len(history) {
		t.Fatalf("history holds %d values, want the %d seeded ones", n, len(history))
	}
	if ws, _ := a.f.Status(adaptiveID); ws.Samples != 0 || ws.Rebuilds != 0 {
		t.Fatalf("status %+v after Observe without Predict", ws)
	}
}

// TestRunQueuedRebuilds pins the synchronous seam: an empty queue runs
// nothing, a queued rebuild runs once on the caller's goroutine, and a done
// context leaves the queue untouched.
func TestRunQueuedRebuilds(t *testing.T) {
	f, err := Open(testOptions(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if n := f.RunQueuedRebuilds(ctx); n != 0 {
		t.Fatalf("empty queue ran %d rebuilds", n)
	}
	builds := 0
	f.buildFn = func(context.Context, core.Config, []float64, []float64) (*core.Result, error) {
		builds++
		return stubResult(tinyModel(t, 2)), nil
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("w", tinySeries(5, 64)); err != nil {
		t.Fatal(err)
	}
	if queued, _ := f.Rebuild("w"); !queued {
		t.Fatal("rebuild not queued")
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if n := f.RunQueuedRebuilds(done); n != 0 || builds != 0 {
		t.Fatalf("done context ran %d rebuilds (%d builds)", n, builds)
	}
	if n := f.RunQueuedRebuilds(ctx); n != 1 || builds != 1 {
		t.Fatalf("ran %d rebuilds (%d builds), want 1", n, builds)
	}
	if n := f.RunQueuedRebuilds(ctx); n != 0 {
		t.Fatalf("drained queue ran %d more", n)
	}
	if ws, _ := f.Status("w"); ws.Rebuilding || ws.Rebuilds != 1 {
		t.Fatalf("status %+v after the drained rebuild", ws)
	}
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

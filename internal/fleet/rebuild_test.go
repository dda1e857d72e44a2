package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/nn"
	"loaddynamics/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// tinyBuildConfig is a real (not stubbed) core configuration that builds in
// well under a second.
func tinyBuildConfig() core.Config {
	tc := nn.DefaultTrainConfig()
	tc.Epochs = 2
	tc.Patience = 0
	return core.Config{
		Space:      core.ScaledSpace(4, 2, 1, 8),
		MaxIters:   2,
		InitPoints: 2,
		Seed:       7,
		Train:      tc,
		Scaler:     "minmax",
		Parallel:   1,
	}
}

// driftWorkload seeds history and injects a distribution shift: served
// forecasts stay near the old level while observations arrive 10× higher.
func driftWorkload(t *testing.T, f *Fleet, id string) Status {
	t.Helper()
	if _, err := f.Observe(id, tinySeries(5, 64)); err != nil {
		t.Fatal(err)
	}
	var st Status
	var err error
	f.RecordForecast(id, []float64{100, 100, 100, 100})
	if st, err = f.Observe(id, []float64{1000, 1000, 1000, 1000}); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDriftToRebuildToPromotion is the deterministic end-to-end pipeline
// with a real tiny build: a shifted workload drifts, a background worker
// re-runs core.Build on the observed history, and the new model is
// atomically promoted because the incumbent forecasts the shifted split
// worse than the new model does.
func TestDriftToRebuildToPromotion(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.Build = tinyBuildConfig()
	opts.RebuildBudget = time.Minute
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	old := tinyModel(t, 1)
	old.ValError = 1e9 // marks the incumbent: no rebuilt model stores this
	if err := f.Add("shift", old); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	st := driftWorkload(t, f, "shift")
	if !st.Drift || !st.RebuildQueued {
		t.Fatalf("status %+v, want drift + queued rebuild", st)
	}
	reg := f.opts.Metrics
	waitFor(t, 30*time.Second, "promotion", func() bool {
		return reg.Counter("fleet.rebuilds.ok").Value() == 1
	})
	m, err := f.Model("shift")
	if err != nil {
		t.Fatal(err)
	}
	if m == old || m.ValError >= 1e9 {
		t.Fatalf("rebuilt model not promoted (val_error %v)", m.ValError)
	}
	if reg.Counter("fleet.promotions").Value() != 1 {
		t.Fatal("promotion not counted")
	}
	ws, _ := f.Status("shift")
	if ws.Drift || ws.Samples != 0 {
		t.Fatalf("eval state not reset after promotion: %+v", ws)
	}
	if ws.Promotions != 1 || ws.Rebuilds != 1 {
		t.Fatalf("workload counters %+v", ws)
	}
	// The promoted model was persisted: a fresh fleet serves it from disk.
	f2, err := Open(testOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := f2.Model("shift")
	if err != nil {
		t.Fatal(err)
	}
	if m2.ValError >= 1e9 {
		t.Fatal("promoted model not persisted to the snapshot directory")
	}
}

// TestRebuildRejectedWhenNoImprovement pins the promotion policy: a
// candidate whose CV error is above the incumbent's error on the same split
// is no improvement, so the rebuild completes and is recorded as a rejected
// promotion while the old model keeps serving.
func TestRebuildRejectedWhenNoImprovement(t *testing.T) {
	opts := testOptions(t, "")
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	worse := tinyModel(t, 2)
	worse.ValError = 1e9 // no incumbent scores this badly on the split
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		return &core.Result{Best: worse}, nil
	}
	old := tinyModel(t, 1)
	if err := f.Add("w", old); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	driftWorkload(t, f, "w")
	reg := f.opts.Metrics
	waitFor(t, 10*time.Second, "rejection", func() bool {
		return reg.Counter("fleet.rebuilds.rejected").Value() == 1
	})
	if m, _ := f.Model("w"); m != old {
		t.Fatal("rejected rebuild replaced the serving model")
	}
	if reg.Counter("fleet.promotions").Value() != 0 {
		t.Fatal("promotion counted despite rejection")
	}
	ws, _ := f.Status("w")
	if ws.RejectedPromotions != 1 || ws.Drift || ws.Samples != 0 {
		t.Fatalf("workload status after rejection: %+v", ws)
	}
}

// TestPromotionGateComparesOnTheSameSplit pins the same-data promotion
// gate: an incumbent whose stored CV error is tiny (it fit the old regime)
// but that forecasts the shifted history badly is scored on the rebuild's
// own split, so a candidate that beats it there is promoted even though the
// candidate's CV error is far above the incumbent's stored one.
func TestPromotionGateComparesOnTheSameSplit(t *testing.T) {
	f, err := Open(testOptions(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	candidate := tinyModel(t, 2)
	candidate.ValError = 5
	var train, validate []float64
	f.buildFn = func(ctx context.Context, cfg core.Config, tr, va []float64) (*core.Result, error) {
		train, validate = tr, va
		return stubResult(candidate), nil
	}
	old := tinyModel(t, 1)
	old.ValError = 0.01 // fit the old regime almost perfectly
	if err := f.Add("w", old); err != nil {
		t.Fatal(err)
	}
	driftWorkload(t, f, "w")
	if n := f.RunQueuedRebuilds(context.Background()); n != 1 {
		t.Fatalf("ran %d rebuilds, want 1", n)
	}
	reg := f.opts.Metrics
	score, err := old.Evaluate(train, validate)
	if err != nil {
		t.Fatal(err)
	}
	if !(score > candidate.ValError) {
		t.Fatalf("setup: incumbent scores %.2f on the split, want above the candidate's %.2f", score, candidate.ValError)
	}
	if got := reg.Counter("fleet.rebuilds.ok").Value(); got != 1 {
		t.Fatalf("rebuilds.ok = %d: candidate at %.2f lost to an incumbent scoring %.2f on the same split",
			got, candidate.ValError, score)
	}
	if m, _ := f.Model("w"); m != candidate {
		t.Fatal("candidate not promoted")
	}
	if ws, _ := f.Status("w"); ws.ValError != candidate.ValError {
		t.Fatalf("stored CV error after promotion = %v, want the candidate's %v", ws.ValError, candidate.ValError)
	}
}

// TestPromotionGateFallsBackToStoredError: an incumbent whose history
// window is longer than the rebuild's training split cannot be scored
// there, so the gate compares the candidate with its stored CV error.
func TestPromotionGateFallsBackToStoredError(t *testing.T) {
	f, err := Open(testOptions(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	candidate := tinyModel(t, 2)
	candidate.ValError = 5
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		if len(train) >= 56 {
			return nil, fmt.Errorf("setup: train split of %d scores a 56-value window", len(train))
		}
		return stubResult(candidate), nil
	}
	old := trainOn(t, tinySeries(1, 200), 1, 56)
	old.ValError = 0.01
	if err := f.Add("w", old); err != nil {
		t.Fatal(err)
	}
	driftWorkload(t, f, "w")
	if n := f.RunQueuedRebuilds(context.Background()); n != 1 {
		t.Fatalf("ran %d rebuilds, want 1", n)
	}
	if got := f.opts.Metrics.Counter("fleet.rebuilds.rejected").Value(); got != 1 {
		t.Fatalf("rebuilds.rejected = %d: a candidate at 5 must lose to the stored 0.01", got)
	}
}

func TestRebuildTimeoutOutcome(t *testing.T) {
	opts := testOptions(t, "")
	opts.RebuildBudget = 20 * time.Millisecond
	opts.Trace = obs.NewTrace()
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("interrupted: %w", ctx.Err())
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	driftWorkload(t, f, "w")
	reg := f.opts.Metrics
	waitFor(t, 10*time.Second, "timeout outcome", func() bool {
		return reg.Counter("fleet.rebuilds.timeout").Value() == 1
	})
	spans := opts.Trace.Named("fleet.rebuild")
	if len(spans) != 1 || spans[0].Outcome != obs.OutcomeTimeout {
		t.Fatalf("rebuild spans = %+v, want one timeout", spans)
	}
	if spans[0].Attr("workload") != "w" {
		t.Fatalf("span attrs = %+v", spans[0].Attrs)
	}
	// The workload is available for a later rebuild attempt.
	waitFor(t, time.Second, "rebuilding flag cleared", func() bool {
		ws, _ := f.Status("w")
		return !ws.Rebuilding
	})
}

func TestRebuildCancelledOnClose(t *testing.T) {
	opts := testOptions(t, "")
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	driftWorkload(t, f, "w")
	<-started
	f.Close() // must cancel the in-flight build and return promptly
	if got := f.opts.Metrics.Counter("fleet.rebuilds.cancelled").Value(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

// TestRebuildClearsStaleCheckpoint pins the retry path: a checkpoint left
// by an earlier rebuild over different history fails the resume with a
// fingerprint mismatch; the worker removes it and retries once.
func TestRebuildClearsStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	better := tinyModel(t, 2)
	better.ValError = 0 // always promotes
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		calls++
		if cfg.CheckpointPath == "" || !cfg.Resume {
			return nil, fmt.Errorf("expected a resumable per-workload checkpoint, got %q", cfg.CheckpointPath)
		}
		if calls == 1 {
			if _, err := os.Stat(cfg.CheckpointPath); err != nil {
				return nil, fmt.Errorf("stale checkpoint missing on first attempt: %w", err)
			}
			return nil, fmt.Errorf("checkpoint was written by a different build configuration: %w", core.ErrCheckpointMismatch)
		}
		if _, err := os.Stat(cfg.CheckpointPath); !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("stale checkpoint not cleared before retry (err=%v)", err)
		}
		return &core.Result{Best: better}, nil
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "w.rebuild.ckpt")
	if err := os.WriteFile(stale, []byte(`{"version":1,"fingerprint":"stale"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	driftWorkload(t, f, "w")
	reg := f.opts.Metrics
	waitFor(t, 10*time.Second, "promotion after retry", func() bool {
		return reg.Counter("fleet.rebuilds.ok").Value() == 1
	})
	if calls != 2 {
		t.Fatalf("buildFn calls = %d, want 2 (failed resume + clean retry)", calls)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint not consumed after success (err=%v)", err)
	}
}

// TestRebuildFailureDoesNotRetry: a build that fails for any reason other
// than a mismatched checkpoint runs once — retrying would train every
// candidate a second time to the same failure — and its checkpoint stays
// on disk for the next attempt to resume.
func TestRebuildFailureDoesNotRetry(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(testOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		calls.Add(1)
		return nil, errors.New("core: no candidate trained successfully")
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "w.rebuild.ckpt")
	if err := os.WriteFile(ckpt, []byte(`{"version":2,"fingerprint":"kept"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	driftWorkload(t, f, "w")
	waitFor(t, 10*time.Second, "rebuild failure", func() bool {
		return f.opts.Metrics.Counter("fleet.rebuilds.failed").Value() == 1
	})
	if n := calls.Load(); n != 1 {
		t.Fatalf("buildFn calls = %d, want 1 (no retry after a non-checkpoint failure)", n)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint removed after a non-checkpoint failure: %v", err)
	}
}

// TestRejectionRequeuesOnlyAfterFreshDrift pins what a rejected rebuild
// does to drift: the verdict resets the rolling windows, so a workload
// whose error stays just as bad is not re-queued on the next scored batch,
// only once drift re-establishes over MinSamples fresh scores.
func TestRejectionRequeuesOnlyAfterFreshDrift(t *testing.T) {
	f, err := Open(testOptions(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	worse := tinyModel(t, 2)
	worse.ValError = 1e9 // loses to any incumbent
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		return stubResult(worse), nil
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	driftWorkload(t, f, "w")
	if n := f.RunQueuedRebuilds(context.Background()); n != 1 {
		t.Fatalf("ran %d rebuilds, want 1", n)
	}
	if got := f.opts.Metrics.Counter("fleet.rebuilds.rejected").Value(); got != 1 {
		t.Fatalf("rebuilds.rejected = %d, want 1", got)
	}
	for i := 1; i <= f.opts.MinSamples; i++ {
		f.RecordForecast("w", []float64{100})
		st, err := f.Observe("w", []float64{1000}) // as far off as the batch that drifted
		if err != nil {
			t.Fatal(err)
		}
		if st.Samples != i {
			t.Fatalf("score %d: samples = %d, want %d (the rejection resets the window)", i, st.Samples, i)
		}
		fresh := i == f.opts.MinSamples
		if st.Drift != fresh || st.RebuildQueued != fresh {
			t.Fatalf("score %d of %d: drift=%v queued=%v, want both %v",
				i, f.opts.MinSamples, st.Drift, st.RebuildQueued, fresh)
		}
	}
}

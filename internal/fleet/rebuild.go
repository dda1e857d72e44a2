package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"loaddynamics/internal/core"
	"loaddynamics/internal/obs"
	"loaddynamics/internal/profile"
	"loaddynamics/internal/wal"
)

// Start launches the background rebuild workers. They exit when ctx is
// cancelled or Close is called. Start is optional — a fleet without
// workers still detects drift and queues rebuilds (until the queue fills);
// nothing else blocks on them.
func (f *Fleet) Start(ctx context.Context) {
	wctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	for i := 0; i < f.opts.RebuildWorkers; i++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for {
				select {
				case <-wctx.Done():
					return
				case id := <-f.queue:
					f.rebuildOne(wctx, id)
				}
			}
		}()
	}
}

// RunQueuedRebuilds drains the rebuild queue through rebuildOne on the
// caller's goroutine — the synchronous counterpart of the Start workers —
// and returns how many rebuilds it ran. Once ctx is done the rest stay
// queued.
func (f *Fleet) RunQueuedRebuilds(ctx context.Context) int {
	n := 0
	for ctx.Err() == nil {
		select {
		case id := <-f.queue:
			f.rebuildOne(ctx, id)
			n++
		default:
			return n
		}
	}
	return n
}

// Close stops the rebuild workers, waits for in-flight rebuilds to finish
// (their build contexts are cancelled, so an LSTM training run stops
// within one mini-batch), drains and stops the streaming-ingest workers
// (admitted observations are applied, not dropped), and closes the
// write-ahead log.
func (f *Fleet) Close() {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	f.stopIngest()
	if f.wal != nil {
		f.wal.Close()
	}
}

// Rebuild queues a workload for an immediate background rebuild (the
// manual/staleness path next to drift-triggered queueing). It reports
// whether the workload was queued: false when one is already queued or
// running, or when the queue is full.
func (f *Fleet) Rebuild(id string) (bool, error) {
	e := f.get(id)
	if e == nil {
		return false, fmt.Errorf("%w: %q", ErrUnknownWorkload, id)
	}
	return f.enqueueRebuild(e), nil
}

// enqueueRebuild queues e unless a rebuild for it is already queued or
// running, its failure backoff has not elapsed, or its circuit breaker is
// open. A full queue drops the request (counted) — the next drifting
// observation batch retries.
func (f *Fleet) enqueueRebuild(e *entry) bool {
	now := time.Now().UnixNano()
	if e.breakerOpen.Load() {
		if now < e.breakerUntil.Load() {
			f.m.breakerRejected.Inc()
			return false
		}
		// Cooldown over: fall through and admit one half-open probe (the
		// rebuilding CAS below dedups concurrent probes to a single one).
	} else if now < e.nextAttempt.Load() {
		f.m.rebuildDeferred.Inc()
		return false
	}
	if !e.rebuilding.CompareAndSwap(false, true) {
		return false
	}
	select {
	case f.queue <- e.id:
		return true
	default:
		e.rebuilding.Store(false)
		f.m.rebuildDropped.Inc()
		return false
	}
}

// rebuildSettled records a completed rebuild (promoted or rejected — the
// build pipeline worked either way): the failure streak and backoff clear,
// and an open breaker closes.
func (f *Fleet) rebuildSettled(e *entry) {
	e.failStreak.Store(0)
	e.nextAttempt.Store(0)
	if e.breakerOpen.CompareAndSwap(true, false) {
		f.m.breakerOpen.Add(-1)
		f.log.Info("rebuild breaker closed", obs.LogWorkload, e.id)
	}
}

// rebuildFaulted records a failed or timed-out rebuild: the next attempt
// is deferred by an exponential backoff with jitter, and enough
// consecutive faults open the workload's circuit breaker so a persistently
// unbuildable workload stops burning the rebuild budget.
func (f *Fleet) rebuildFaulted(e *entry) {
	streak := e.failStreak.Add(1)
	delay := backoffDelay(f.opts.RebuildBackoff, f.opts.RebuildBackoffMax, streak, e.id)
	e.nextAttempt.Store(time.Now().Add(delay).UnixNano())
	if int(streak) >= f.opts.RebuildBreakerFailures {
		e.breakerUntil.Store(time.Now().Add(f.opts.RebuildBreakerCooldown).UnixNano())
		if e.breakerOpen.CompareAndSwap(false, true) {
			f.m.breakerOpened.Inc()
			f.m.breakerOpen.Add(1)
			f.log.Warn("rebuild breaker opened",
				obs.LogWorkload, e.id,
				"consecutive_failures", streak,
				"cooldown", f.opts.RebuildBreakerCooldown.String())
		}
	}
}

// backoffDelay is base·2^(streak−1) capped at max, with ±20% jitter. The
// jitter is deterministic — hashed from the workload and streak — so
// retry schedules are reproducible in tests yet de-synchronized across a
// fleet of workloads that all started failing at the same moment.
func backoffDelay(base, max time.Duration, streak int64, id string) time.Duration {
	if base <= 0 || streak <= 0 {
		return 0
	}
	d := base
	for i := int64(1); i < streak && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(streak) >> (8 * i))
	}
	h.Write(b[:])
	frac := float64(h.Sum64()%1001) / 1000 // 0..1
	return time.Duration(float64(d) * (0.8 + 0.4*frac))
}

// rebuildOne re-runs the core.Build workflow for one workload on its
// accumulated observation history, then promotes the result only if its
// cross-validation error improves on the incumbent's error over the same
// split — otherwise the old model keeps serving and the rejection is
// recorded. Outcomes land in the fleet.rebuild span and the
// fleet.rebuilds.* counters.
func (f *Fleet) rebuildOne(ctx context.Context, id string) {
	e := f.get(id)
	if e == nil {
		return
	}
	defer e.rebuilding.Store(false)
	defer e.rebuilds.Add(1)

	// Consume the drift latch: the trace context of the observation batch
	// whose drift verdict queued this rebuild. Swap(0) so a manual Rebuild
	// or a later re-queue does not inherit a stale chain.
	traceID := e.driftTrace.Swap(0)
	parentID := e.driftParent.Swap(0)

	sp := f.opts.Trace.Start("fleet.rebuild").SetTrace(traceID)
	sp.SetAttr("workload", id)

	e.shard.mu.Lock()
	hist := e.eval.historyCopy()
	e.shard.mu.Unlock()
	sp.SetAttr("history", len(hist))

	// rebuild.started anchors the rebuild's flight events; everything the
	// build produces (promotion, rejection, failure) parents on it. It is a
	// sibling of rebuild.enqueued under the drift event — both parent on
	// the latched drift/batch event, so the chain is connected regardless
	// of whether the worker beat the enqueuer's event recording.
	var startedID uint64
	if f.flight != nil {
		startedID = f.flight.Record(obs.FlightEvent{
			Trace:    obs.HexID(traceID),
			Parent:   obs.HexID(parentID),
			Workload: id,
			Kind:     obs.FlightRebuildStarted,
			Outcome:  obs.OutcomeOK,
			Attrs:    map[string]any{"history": len(hist)},
		})
	}
	flightOutcome := func(kind, outcome string, attrs map[string]any) {
		if f.flight == nil {
			return
		}
		f.flight.Record(obs.FlightEvent{
			Trace:    obs.HexID(traceID),
			Parent:   obs.HexID(startedID),
			Workload: id,
			Kind:     kind,
			Outcome:  outcome,
			Attrs:    attrs,
		})
	}

	f.log.Info("rebuild started", obs.LogWorkload, id, "history", len(hist))
	if len(hist) < f.opts.MinRebuildHistory {
		f.m.rebuildFailed.Inc()
		f.rebuildFaulted(e)
		errText := fmt.Sprintf("history %d below rebuild minimum %d", len(hist), f.opts.MinRebuildHistory)
		sp.SetAttr("error", errText)
		sp.EndOutcome(obs.OutcomeFailed)
		flightOutcome(obs.FlightRebuildFailed, obs.OutcomeFailed, map[string]any{"error": errText})
		f.log.Error("rebuild failed", obs.LogWorkload, id, "error", errText)
		return
	}
	split := (len(hist) * 3) / 4
	train, validate := hist[:split], hist[split:]

	cfg := f.rebuildConfig(id, hist)
	cfg.TraceID = traceID
	// Transfer learning: fingerprint the history the build will run over
	// and seed the search with the nearest siblings' tuned hyperparameters.
	fp := profile.Compute(hist)
	priors, ws := f.transferPriors(id, fp)
	cfg.PriorObservations = priors
	sp.SetAttr("warmstart_priors", len(priors))
	bctx := ctx
	if f.opts.RebuildBudget > 0 {
		var cancel context.CancelFunc
		bctx, cancel = context.WithTimeout(ctx, f.opts.RebuildBudget)
		defer cancel()
	}

	start := time.Now()
	res, err := f.buildFn(bctx, cfg, train, validate)
	if errors.Is(err, core.ErrCheckpointMismatch) && bctx.Err() == nil && cfg.CheckpointPath != "" {
		// A checkpoint from an earlier attempt over different history has a
		// mismatched fingerprint and fails the resume; clear it and retry
		// once within the same budget. Any other failure would fail again.
		os.Remove(cfg.CheckpointPath)
		res, err = f.buildFn(bctx, cfg, train, validate)
	}
	f.m.rebuildSeconds.ObserveExemplar(time.Since(start).Seconds(), traceID)

	elapsed := time.Since(start)
	switch {
	case err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// The rebuild budget fired (the fleet itself is not shutting down).
		// With a checkpoint the completed candidates are already on disk.
		f.m.rebuildTimeout.Inc()
		f.rebuildFaulted(e)
		sp.SetAttr("error", err.Error())
		sp.EndOutcome(obs.OutcomeTimeout)
		flightOutcome(obs.FlightRebuildTimeout, obs.OutcomeTimeout,
			map[string]any{"error": err.Error(), "duration_ms": durationMS(elapsed)})
		f.log.Warn("rebuild timed out", obs.LogWorkload, id,
			obs.LogDurationMS, durationMS(elapsed), "error", err.Error())
	case err != nil && ctx.Err() != nil:
		f.m.rebuildCancelled.Inc()
		sp.SetAttr("error", err.Error())
		sp.EndOutcome(obs.OutcomeCancelled)
		flightOutcome(obs.FlightRebuildCancel, obs.OutcomeCancelled,
			map[string]any{"error": err.Error(), "duration_ms": durationMS(elapsed)})
		f.log.Info("rebuild cancelled", obs.LogWorkload, id,
			obs.LogDurationMS, durationMS(elapsed))
	case err != nil:
		f.m.rebuildFailed.Inc()
		f.rebuildFaulted(e)
		sp.SetAttr("error", err.Error())
		sp.EndOutcome(obs.OutcomeFailed)
		flightOutcome(obs.FlightRebuildFailed, obs.OutcomeFailed,
			map[string]any{"error": err.Error(), "duration_ms": durationMS(elapsed)})
		f.log.Error("rebuild failed", obs.LogWorkload, id,
			obs.LogDurationMS, durationMS(elapsed), "error", err.Error())
	case res == nil || res.Best == nil:
		f.m.rebuildFailed.Inc()
		f.rebuildFaulted(e)
		sp.SetAttr("error", "build returned no model")
		sp.EndOutcome(obs.OutcomeFailed)
		flightOutcome(obs.FlightRebuildFailed, obs.OutcomeFailed,
			map[string]any{"error": "build returned no model", "duration_ms": durationMS(elapsed)})
		f.log.Error("rebuild failed", obs.LogWorkload, id,
			obs.LogDurationMS, durationMS(elapsed), "error", "build returned no model")
	default:
		if cfg.CheckpointPath != "" {
			os.Remove(cfg.CheckpointPath) // consumed: the build completed
		}
		model := res.Best
		incumbent := f.incumbentError(e, train, validate)
		sp.SetAttr("val_error", model.ValError)
		sp.SetAttr("incumbent_val_error", incumbent)
		sp.SetAttr("rounds_to_best", res.RoundsToBest())
		if model.ValError < incumbent {
			if err := f.Promote(id, model); err != nil {
				f.m.rebuildFailed.Inc()
				f.rebuildFaulted(e)
				sp.SetAttr("error", err.Error())
				sp.EndOutcome(obs.OutcomeFailed)
				flightOutcome(obs.FlightRebuildFailed, obs.OutcomeFailed,
					map[string]any{"error": err.Error(), "duration_ms": durationMS(elapsed)})
				f.log.Error("rebuild failed", obs.LogWorkload, id,
					obs.LogDurationMS, durationMS(elapsed), "error", err.Error())
				return
			}
			f.recordOutcome(e, fp, res, ws)
			f.resetEval(e)
			f.rebuildSettled(e)
			f.m.rebuildOK.Inc()
			sp.EndOutcome(obs.OutcomeOK)
			flightOutcome(obs.FlightRebuildPromoted, obs.OutcomeOK, map[string]any{
				"val_error":           model.ValError,
				"incumbent_val_error": incumbent,
				"rounds_to_best":      res.RoundsToBest(),
				"warmstart_priors":    len(priors),
				"warmstart_neighbors": ws.Neighbors,
				"duration_ms":         durationMS(elapsed),
			})
			f.log.Info("rebuild promoted", obs.LogWorkload, id,
				obs.LogDurationMS, durationMS(elapsed),
				"val_error", model.ValError, "incumbent_val_error", incumbent,
				"warmstart_priors", len(priors), "rounds_to_best", res.RoundsToBest())
		} else {
			// The incumbent stays: a retrained model that is no better than
			// what is serving must not churn the fleet. The search outcome is
			// still recorded — a rejected build says just as much about where
			// good hyperparameters live as a promoted one.
			f.recordOutcome(e, fp, res, ws)
			e.rejections.Add(1)
			f.m.rejected.Inc()
			f.m.rebuildRejected.Inc()
			f.resetEval(e)
			f.rebuildSettled(e)
			sp.EndOutcome("rejected")
			flightOutcome(obs.FlightRebuildRejected, "rejected", map[string]any{
				"val_error":           model.ValError,
				"incumbent_val_error": incumbent,
				"rounds_to_best":      res.RoundsToBest(),
				"warmstart_priors":    len(priors),
				"warmstart_neighbors": ws.Neighbors,
				"duration_ms":         durationMS(elapsed),
			})
			f.log.Info("rebuild rejected: incumbent keeps serving", obs.LogWorkload, id,
				obs.LogDurationMS, durationMS(elapsed),
				"val_error", model.ValError, "incumbent_val_error", incumbent)
		}
	}
}

// incumbentError scores the serving model on the rebuild's own split, the
// data the candidate's CV error was measured on. The stored CV error was
// measured on the data the incumbent was built from, so after a regime
// shift an incumbent that fit the old pattern would look unbeatable. A
// model that cannot be scored there falls back to the stored CV error.
func (f *Fleet) incumbentError(e *entry, train, validate []float64) float64 {
	m := e.model.Load()
	if m == nil {
		m, _ = f.load(e) // an unloadable incumbent falls back below
	}
	if m != nil {
		if v, err := m.Evaluate(train, validate); err == nil && !math.IsNaN(v) {
			return v
		}
	}
	return e.valError()
}

// durationMS renders a duration in the log schema's duration_ms unit.
func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// resetEval clears the workload's rolling windows after a rebuild verdict
// and zeroes its rolling-MAPE gauge. The reset is WAL-logged so a replayed
// boot clears its windows at the same point in the record stream the live
// process did. It takes the workload's shard lock — the same lock the
// streaming-ingest workers apply chunks under — so a reset can never land
// between a streamed batch's WAL append and its ring mutation: in both
// the log and memory, every observation is wholly before or wholly after
// the reset, never torn across it.
func (f *Fleet) resetEval(e *entry) {
	f.commit(e, wal.Record{Kind: walKindReset, Workload: e.id}, &ingestResult{})
}

// rebuildConfig derives the core configuration for one rebuild: the
// fleet's build template with a seed tied to the training data (identical
// history resumes a checkpointed search; shifted history explores afresh)
// and, with a snapshot directory, a per-workload checkpoint path so an
// interrupted or timed-out rebuild reuses its completed candidates.
func (f *Fleet) rebuildConfig(id string, hist []float64) core.Config {
	cfg := f.opts.Build
	cfg.Seed = rebuildSeed(cfg.Seed, hist)
	if cfg.CheckpointPath == "" && f.opts.Dir != "" {
		cfg.CheckpointPath = filepath.Join(f.opts.Dir, id+".rebuild.ckpt")
		cfg.Resume = true
	}
	return cfg
}

// rebuildSeed hashes the base seed and the training data.
func rebuildSeed(base int64, hist []float64) int64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(base))
	put(uint64(len(hist)))
	for _, v := range hist {
		put(math.Float64bits(v))
	}
	return int64(h.Sum64())
}

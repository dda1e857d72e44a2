package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
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

// verdictKind is how a rebuild ended: the index of its verdictTable row.
type verdictKind uint8

const (
	verdictFailed    verdictKind = iota // short history, build error or no model
	verdictTimeout                      // the rebuild budget fired
	verdictCancelled                    // the fleet is shutting down
	verdictPromoted                     // the candidate beat the incumbent
	verdictRejected                     // the incumbent keeps serving
)

// What a verdict does to the workload's failure streak, rebuild backoff
// and circuit breaker.
const (
	backoffKeep  = iota // an interrupted build was not judged
	backoffArm          // a fault
	backoffClear        // the build pipeline worked
)

// verdictTable says what each verdict does besides the promotion protocol:
// the fleet.rebuilds.* counter it bumps, its backoff effect, the outcome of
// the fleet.rebuild span and of the terminal flight event, that event's
// kind, and the log line's level, message and fields after the workload.
var verdictTable = [...]struct {
	counter       string
	backoff       int
	outcome, kind string
	level         slog.Level
	msg           string
	logKeys       []string
}{
	verdictFailed: {"fleet.rebuilds.failed", backoffArm, obs.OutcomeFailed, obs.FlightRebuildFailed,
		slog.LevelError, "rebuild failed", []string{obs.LogDurationMS, "error"}},
	verdictTimeout: {"fleet.rebuilds.timeout", backoffArm, obs.OutcomeTimeout, obs.FlightRebuildTimeout,
		slog.LevelWarn, "rebuild timed out", []string{obs.LogDurationMS, "error"}},
	verdictCancelled: {"fleet.rebuilds.cancelled", backoffKeep, obs.OutcomeCancelled, obs.FlightRebuildCancel,
		slog.LevelInfo, "rebuild cancelled", []string{obs.LogDurationMS}},
	verdictPromoted: {"fleet.rebuilds.ok", backoffClear, obs.OutcomeOK, obs.FlightRebuildPromoted,
		slog.LevelInfo, "rebuild promoted", []string{obs.LogDurationMS, "val_error", "incumbent_val_error", "warmstart_priors", "rounds_to_best"}},
	verdictRejected: {"fleet.rebuilds.rejected", backoffClear, "rejected", obs.FlightRebuildRejected,
		slog.LevelInfo, "rebuild rejected: incumbent keeps serving", []string{obs.LogDurationMS, "val_error", "incumbent_val_error"}},
}

// verdict is one rebuild's outcome, judged by classify before settle
// applies any of its effects.
type verdict struct {
	kind      verdictKind
	err       error        // failed, timeout, cancelled
	res       *core.Result // promoted, rejected: the finished build
	incumbent float64      // promoted, rejected: the serving model's error on the build's split
	built     bool         // a build ran (the history was long enough); elapsed, fp and ws describe it
	elapsed   time.Duration
	fp        profile.Fingerprint
	ws        profile.WarmStart
	span      *obs.Span
	trace     uint64 // the drift trace that queued the rebuild (0: none)
	started   uint64 // the rebuild.started flight event
}

// rebuildOne re-runs the core.Build workflow for one workload on its
// accumulated observation history: classify judges the build into a
// verdict, and settle applies it.
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
	v := verdict{trace: e.driftTrace.Swap(0)}
	parentID := e.driftParent.Swap(0)

	v.span = f.opts.Trace.Start("fleet.rebuild").SetTrace(v.trace)
	v.span.SetAttr("workload", id)

	e.shard.mu.Lock()
	hist := e.eval.historyCopy()
	e.shard.mu.Unlock()
	v.span.SetAttr("history", len(hist))

	// rebuild.started anchors the rebuild's flight events; the verdict's
	// event parents on it. It is a sibling of rebuild.enqueued under the
	// drift event — both parent on the latched drift/batch event, so the
	// chain is connected regardless of whether the worker beat the
	// enqueuer's event recording.
	if f.flight != nil {
		v.started = f.flight.Record(obs.FlightEvent{
			Trace:    obs.HexID(v.trace),
			Parent:   obs.HexID(parentID),
			Workload: id,
			Kind:     obs.FlightRebuildStarted,
			Outcome:  obs.OutcomeOK,
			Attrs:    map[string]any{"history": len(hist)},
		})
	}
	f.log.Info("rebuild started", obs.LogWorkload, id, "history", len(hist))
	f.classify(ctx, e, hist, &v)
	f.settle(e, &v)
}

// classify runs the build over hist and judges it into v. The new model is
// promoted only if its cross-validation error improves on the incumbent's
// error over the same split; otherwise the old model keeps serving.
func (f *Fleet) classify(ctx context.Context, e *entry, hist []float64, v *verdict) {
	if len(hist) < f.opts.MinRebuildHistory {
		v.kind, v.err = verdictFailed, fmt.Errorf("history %d below rebuild minimum %d", len(hist), f.opts.MinRebuildHistory)
		return
	}
	split := (len(hist) * 3) / 4
	train, validate := hist[:split], hist[split:]

	cfg := f.rebuildConfig(e.id, hist)
	cfg.TraceID = v.trace
	// Transfer learning: fingerprint the history the build will run over
	// and seed the search with the nearest siblings' tuned hyperparameters.
	v.fp = profile.Compute(hist)
	cfg.PriorObservations, v.ws = f.transferPriors(e.id, v.fp)
	v.span.SetAttr("warmstart_priors", v.ws.Priors)
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
	v.built, v.elapsed = true, time.Since(start)
	f.m.rebuildSeconds.ObserveExemplar(v.elapsed.Seconds(), v.trace)

	switch {
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// The rebuild budget fired (the fleet itself is not shutting down).
		// With a checkpoint the completed candidates are already on disk.
		v.kind, v.err = verdictTimeout, err
	case err != nil && ctx.Err() != nil:
		v.kind, v.err = verdictCancelled, err
	case err != nil:
		v.kind, v.err = verdictFailed, err
	case res == nil || res.Best == nil:
		v.kind, v.err = verdictFailed, errors.New("build returned no model")
	default:
		if cfg.CheckpointPath != "" {
			os.Remove(cfg.CheckpointPath) // consumed: the build completed
		}
		v.res, v.incumbent = res, f.incumbentError(e, train, validate)
		v.span.SetAttr("val_error", res.Best.ValError)
		v.span.SetAttr("incumbent_val_error", v.incumbent)
		v.span.SetAttr("rounds_to_best", res.RoundsToBest())
		v.kind = verdictRejected
		if res.Best.ValError < v.incumbent {
			v.kind = verdictPromoted
		}
	}
}

// settle applies a verdict: a finished build's promotion protocol
// (commitVerdict), then everything its verdictTable row says.
func (f *Fleet) settle(e *entry, v *verdict) {
	row := &verdictTable[v.kind]
	if v.res != nil {
		f.commitVerdict(e, v)
	}
	switch row.backoff {
	case backoffArm:
		// The next attempt waits out an exponential backoff with jitter, and
		// enough consecutive faults open the workload's circuit breaker so a
		// persistently unbuildable workload stops burning the rebuild budget.
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
	case backoffClear:
		e.failStreak.Store(0)
		e.nextAttempt.Store(0)
		if e.breakerOpen.CompareAndSwap(true, false) {
			f.m.breakerOpen.Add(-1)
			f.log.Info("rebuild breaker closed", obs.LogWorkload, e.id)
		}
	}
	f.m.rebuilds[v.kind].Inc()

	// The flight event's attributes are also the pool the log line draws
	// its fields from.
	var attrs map[string]any
	if v.err != nil {
		attrs = map[string]any{"error": v.err.Error()}
		v.span.SetAttr("error", v.err.Error())
	} else {
		attrs = map[string]any{"val_error": v.res.Best.ValError, "incumbent_val_error": v.incumbent,
			"rounds_to_best": v.res.RoundsToBest(), "warmstart_priors": v.ws.Priors, "warmstart_neighbors": v.ws.Neighbors}
	}
	if v.built {
		attrs[obs.LogDurationMS] = float64(v.elapsed) / float64(time.Millisecond)
	}
	v.span.EndOutcome(row.outcome)
	if f.flight != nil {
		f.flight.Record(obs.FlightEvent{Trace: obs.HexID(v.trace), Parent: obs.HexID(v.started),
			Workload: e.id, Kind: row.kind, Outcome: row.outcome, Attrs: attrs})
	}
	args := []any{obs.LogWorkload, e.id}
	for _, k := range row.logKeys {
		if x, ok := attrs[k]; ok {
			args = append(args, k, x)
		}
	}
	f.log.Log(context.Background(), row.level, row.msg, args...)
}

// commitVerdict is the promotion protocol, a finished build's writes in
// order: a promoted candidate's snapshot and manifest (and its swap into
// service), the build's outcome in priors.json, then the WAL reset record
// that clears the workload's rolling windows. A rejected build writes the
// last two — its search still says where good hyperparameters live.
func (f *Fleet) commitVerdict(e *entry, v *verdict) {
	if v.kind == verdictPromoted {
		f.promote(e, v.res.Best)
	} else {
		e.rejections.Add(1)
	}
	if err := f.record(e.id, v.fp, v.res, v.ws, e.version.Load()); err != nil {
		f.log.Warn("prior store rejected build outcome", obs.LogWorkload, e.id, "error", err.Error())
	}
	f.resetEval(e)
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
